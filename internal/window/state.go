package window

// Checkpoint support: the Manager serialises its open windows (per-group
// aggregator accumulators and representative bindings) and watermark, and
// History serialises its snapshot ring, into the wire format. Decoding uses
// merge semantics so a restore can fold several per-shard state blobs into
// one manager (or re-split one logical state across a different shard
// count): windows union, the watermark advances to the max observed, and a
// keep filter selects which group keys this replica owns — filtered groups
// are still fully parsed (the blob must decode as a unit) but fold no state,
// exactly like Touch during live sharded execution.

import (
	"fmt"
	"slices"
	"strings"

	"saql/internal/agg"
	"saql/internal/event"
	"saql/internal/value"
	"saql/internal/wire"
)

// AppendState appends the manager's full state: watermark, late-event
// counter, and every open window's groups with their aggregator
// accumulators. Windows and groups are emitted in sorted order so equal
// states encode identically.
func (m *Manager) AppendState(b []byte) ([]byte, error) {
	b = wire.AppendBool(b, m.hasWM)
	if m.hasWM {
		b = wire.AppendVarint(b, m.watermark)
	} else {
		b = wire.AppendVarint(b, 0)
	}
	b = wire.AppendVarint(b, m.LateEvents)

	b = wire.AppendUvarint(b, uint64(len(m.open)))
	for _, w := range m.open {
		b = wire.AppendVarint(b, int64(w.id))
		b = wire.AppendUvarint(b, uint64(len(w.groups)))
		// Sort a copy: the window's own list keeps its order.
		m.sortScratch = append(m.sortScratch[:0], w.touched...)
		slices.SortFunc(m.sortScratch, func(a, b *Group) int { return strings.Compare(a.Key, b.Key) })
		for _, g := range m.sortScratch {
			var err error
			if b, err = m.appendGroup(b, g); err != nil {
				return b, err
			}
		}
	}
	clear(m.sortScratch) // pins no group once its window is recycled
	return b, nil
}

func (m *Manager) appendGroup(b []byte, g *Group) ([]byte, error) {
	b = wire.AppendString(b, g.Key)
	b = wire.AppendVarint(b, int64(g.Count))
	b = m.appendEntities(b, g.Entities)
	b = m.appendEvents(b, g.Events)
	b = wire.AppendUvarint(b, uint64(len(g.Aggs)))
	for _, a := range g.Aggs {
		var err error
		if b, err = agg.AppendState(b, a); err != nil {
			return b, err
		}
	}
	return b, nil
}

// ReadState folds an encoded manager state into m. keep selects the group
// keys this replica owns (nil keeps all); disjoint folds the per-owner
// counters (LateEvents) that must be restored on exactly one replica. The
// window set and watermark are merged on every replica, so window close
// cadence stays identical across shards after a restore.
func (m *Manager) ReadState(r *wire.Reader, keep func(string) bool, disjoint bool) error {
	hasWM := r.Bool()
	wm := r.Varint()
	late := r.Varint()
	if r.Err() != nil {
		return r.Err()
	}
	if hasWM && (!m.hasWM || wm > m.watermark) {
		m.watermark = wm
		m.hasWM = true
	}
	if disjoint {
		m.LateEvents += late
	}
	// Decoded groups enter (or replace groups in) the key tables, and each
	// decoded window's group list is rebuilt from its table: the id indexes
	// may name replaced groups, so the next fold rebuilds them.
	m.index = nil
	nWin := r.Count(2)
	for i := 0; i < nWin && r.Err() == nil; i++ {
		w := m.window(ID(r.Varint()))
		nGroups := r.Count(2)
		for j := 0; j < nGroups && r.Err() == nil; j++ {
			g, err := m.readGroup(r)
			if err != nil {
				return err
			}
			if keep == nil || keep(g.Key) {
				w.groups[g.Key] = g
			}
		}
		clear(w.touched)
		w.touched = w.touched[:0]
		for _, g := range w.groups {
			w.touched = append(w.touched, g)
		}
	}
	return r.Err()
}

func (m *Manager) readGroup(r *wire.Reader) (*Group, error) {
	key, count := r.String(), int(r.Varint())
	ents, evs := m.readEntities(r), m.readEvents(r)
	nAggs := r.Count(1)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nAggs != len(m.fields) {
		return nil, fmt.Errorf("window: snapshot has %d aggregators, manager has %d state fields", nAggs, len(m.fields))
	}
	// Groups are always as wide as the slot tables (the fold path indexes
	// them unchecked), which the decoders have grown to every name read; they
	// return only as many slots as were bound.
	g := m.newGroup(key)
	g.Count = count
	copy(g.Entities, ents)
	copy(g.Events, evs)
	for _, a := range g.Aggs {
		if err := agg.ReadState(r, a); err != nil {
			return nil, err
		}
	}
	return g, r.Err()
}

// ---------------------------------------------------------------------------
// Snapshot and history codec
// ---------------------------------------------------------------------------

// appendSnapshot appends one frozen group snapshot: fields and bindings by
// name, in ascending name order.
func (m *Manager) appendSnapshot(b []byte, s *Snapshot) []byte {
	b = wire.AppendVarint(b, int64(s.WindowID))
	b = wire.AppendVarint(b, int64(s.Count))
	order := m.fieldOrder
	if len(s.Fields) == 0 {
		order = nil // a snapshot decoded from no fields encodes none
	}
	b = wire.AppendUvarint(b, uint64(len(order)))
	for _, i := range order {
		b = wire.AppendString(b, m.fields[i].Name)
		b = wire.AppendValue(b, s.Fields[i])
	}
	b = m.appendEntities(b, s.Entities)
	b = m.appendEvents(b, s.Events)
	return b
}

// readSnapshot decodes one group snapshot. A field the manager does not
// declare fails the read: the blob was taken under another state block.
func (m *Manager) readSnapshot(r *wire.Reader) *Snapshot {
	s := &Snapshot{
		WindowID: ID(r.Varint()),
		Count:    int(r.Varint()),
	}
	nFields := r.Count(2)
	if nFields > 0 {
		s.Fields = make([]value.Value, len(m.fields))
	}
	for i := 0; i < nFields && r.Err() == nil; i++ {
		name := r.String()
		v := r.ReadValue()
		slot := -1
		for j, f := range m.fields {
			if f.Name == name {
				slot = j
			}
		}
		if slot < 0 {
			r.Fail("snapshot field %q is not a state field of this query", name)
			break
		}
		s.Fields[slot] = v
	}
	s.Entities = m.readEntities(r)
	s.Events = m.readEvents(r)
	return s
}

// AppendState appends the history ring: depth, lifetime total, and the
// retained snapshots oldest first.
func (h *History) AppendState(b []byte) []byte {
	b = wire.AppendVarint(b, int64(h.depth))
	b = wire.AppendVarint(b, int64(h.total))
	b = wire.AppendUvarint(b, uint64(h.n))
	for k := h.n - 1; k >= 0; k-- {
		b = h.m.appendSnapshot(b, h.At(k))
	}
	return b
}

// ReadState restores the ring from r. The encoded depth must match h's
// (histories are recreated from the same compiled query the snapshot was
// taken under).
func (h *History) ReadState(r *wire.Reader) error {
	depth := int(r.Varint())
	total := int(r.Varint())
	if r.Err() != nil {
		return r.Err()
	}
	if depth != h.depth {
		return fmt.Errorf("window: history depth mismatch: snapshot %d, query %d", depth, h.depth)
	}
	n := r.Count(4)
	for i := 0; i < n && r.Err() == nil; i++ {
		h.Push(h.m.readSnapshot(r))
	}
	if r.Err() == nil {
		// Total drives invariant/backfill counters; it may exceed the
		// retained count.
		h.total = total
	}
	return r.Err()
}

// ---------------------------------------------------------------------------
// Bindings: slots in memory, names on the wire
// ---------------------------------------------------------------------------

func (m *Manager) appendEntities(b []byte, ents []*event.Entity) []byte {
	m.slotScratch = boundSlots(m.slotScratch[:0], m.entities.order, ents)
	b = wire.AppendUvarint(b, uint64(len(m.slotScratch)))
	for _, slot := range m.slotScratch {
		b = wire.AppendString(b, m.entities.names[slot])
		b = wire.AppendEntity(b, ents[slot])
	}
	return b
}

// boundSlots appends to dst the slots of order (ascending name) that vals
// binds.
func boundSlots[T any](dst, order []int, vals []*T) []int {
	for _, slot := range order {
		if slot < len(vals) && vals[slot] != nil {
			dst = append(dst, slot)
		}
	}
	return dst
}

// readEntities decodes name-keyed entity bindings into slots, assigning a
// slot to any name the compiled query has not declared, so that such a
// binding survives to the next encode. It returns nil for no bindings,
// otherwise a slice covering the highest slot bound.
func (m *Manager) readEntities(r *wire.Reader) []*event.Entity {
	n := r.Count(2)
	var out []*event.Entity
	for i := 0; i < n && r.Err() == nil; i++ {
		slot := m.EntitySlot(r.String())
		e := r.ReadEntity()
		for len(out) <= slot {
			out = append(out, nil)
		}
		out[slot] = &e
	}
	return out
}

func (m *Manager) appendEvents(b []byte, evs []*event.Event) []byte {
	m.slotScratch = boundSlots(m.slotScratch[:0], m.events.order, evs)
	b = wire.AppendUvarint(b, uint64(len(m.slotScratch)))
	for _, slot := range m.slotScratch {
		b = wire.AppendString(b, m.events.names[slot])
		b = wire.AppendEvent(b, evs[slot])
	}
	return b
}

// readEvents is readEntities for event aliases.
func (m *Manager) readEvents(r *wire.Reader) []*event.Event {
	n := r.Count(2)
	var out []*event.Event
	for i := 0; i < n && r.Err() == nil; i++ {
		slot := m.EventSlot(r.String())
		ev := r.ReadEvent()
		for len(out) <= slot {
			out = append(out, nil)
		}
		out[slot] = ev
	}
	return out
}
