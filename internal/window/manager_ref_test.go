package window

// The state maintainer as it stood before the deadline-driven rewrite, kept
// verbatim (type names aside) as the oracle for manager_diff_test.go: open
// windows in a map walked by every Advance, groups binding entities and
// events by variable name, aggregator factories resolved by name per group.
// Beside it, the deadline-driven Manager's own string-keyed fold from before
// group ids (groupForKey).

import (
	"fmt"
	"sort"
	"time"

	"saql/internal/agg"
	"saql/internal/event"
	"saql/internal/value"
	"saql/internal/wire"
)

// groupForKey is the deadline-driven Manager's fold as it stood before group
// ids: one string-keyed probe of each containing window's key table per call,
// a new group also entering the window's group list.
// manager_diff_test.go drives it beside the id fold (GroupFor) and the
// map-walking reference, so a dropped id index must leave all three agreeing.
func (m *Manager) groupForKey(t time.Time, groupKey string) []*Group {
	m.idScratch = m.spec.AssignAppend(m.idScratch[:0], t)
	out := m.groupScratch[:0]
	length := m.spec.Length.Nanoseconds()
	for _, id := range m.idScratch {
		if m.passed(int64(id) + length) {
			m.LateEvents++
			continue
		}
		w := m.window(id)
		g, ok := w.groups[groupKey]
		if !ok {
			g = m.newGroup(groupKey)
			w.groups[groupKey] = g
			w.touched = append(w.touched, g) // the window's group list, as firstTouch keeps it
		}
		out = append(out, g)
	}
	m.groupScratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// eachWindow calls f with the ID of every window containing the instant ts
// (unix nanoseconds), newest first.
func (s Spec) eachWindow(ts int64, f func(ID)) {
	hop := s.EffectiveHop().Nanoseconds()
	length := s.Length.Nanoseconds()
	// Latest window start <= ts, aligned to hop.
	latest := ts - mod(ts, hop)
	for start := latest; start > ts-length; start -= hop {
		f(ID(start))
	}
}

// refGroup accumulates one group's aggregators within one window, along with
// representative entity/event bindings used later to evaluate alert and
// return expressions for the group (SAQL returns the attributes of the
// group's matched events, e.g. `return p, ss[0].avg_amount`).
type refGroup struct {
	Key      string
	Aggs     []agg.Aggregator
	Entities map[string]*event.Entity
	Events   map[string]*event.Event
	Count    int // events folded into this group this window
}

// refSnapshot is the frozen state of one group for one closed window.
type refSnapshot struct {
	WindowID ID
	Fields   map[string]value.Value
	Entities map[string]*event.Entity
	Events   map[string]*event.Event
	Count    int
}

// refOpenWindow is one in-flight window.
type refOpenWindow struct {
	id     ID
	groups map[string]*refGroup
}

// refClosed describes one closed window delivered by Advance.
type refClosed struct {
	ID     ID
	End    time.Time
	Groups map[string]*refGroup
}

// refManager assigns events to windows and closes windows as the watermark
// (max event time observed) passes their end.
type refManager struct {
	spec      Spec
	fields    []FieldSpec
	open      map[ID]*refOpenWindow
	watermark time.Time
	hasWM     bool

	// idScratch and groupScratch are reused across GroupFor calls so
	// per-event window assignment never allocates on the hot path (a
	// refManager is single-goroutine-confined).
	idScratch    []ID
	groupScratch []*refGroup

	// Stats.
	LateEvents int64 // events older than an already-closed window
}

// newRefManager creates a window manager for the given spec and state fields.
func newRefManager(spec Spec, fields []FieldSpec) (*refManager, error) {
	if spec.Length <= 0 {
		return nil, fmt.Errorf("window: non-positive window length %v", spec.Length)
	}
	for _, f := range fields {
		// Validate the aggregator factory eagerly so a bad query fails
		// at compile time, not at the first event.
		if _, err := agg.New(f.AggName, f.AggParams); err != nil {
			return nil, err
		}
	}
	return &refManager{spec: spec, fields: fields, open: map[ID]*refOpenWindow{}}, nil
}

// Spec returns the manager's window spec.
func (m *refManager) Spec() Spec { return m.spec }

// GroupFor returns (creating if needed) the group accumulator for groupKey in
// every window containing t. It returns nil if the event is late (belongs
// only to windows that already closed). The returned slice is reused by the
// next GroupFor call: iterate it immediately, do not retain it (the *refGroup
// elements themselves are stable).
func (m *refManager) GroupFor(t time.Time, groupKey string) []*refGroup {
	m.idScratch = m.spec.AssignAppend(m.idScratch[:0], t)
	ids := m.idScratch
	out := m.groupScratch[:0]
	for _, id := range ids {
		if m.hasWM && !m.spec.End(id).After(m.watermark) {
			// Window already closed; count as late.
			m.LateEvents++
			continue
		}
		w, ok := m.open[id]
		if !ok {
			w = &refOpenWindow{id: id, groups: map[string]*refGroup{}}
			m.open[id] = w
		}
		g, ok := w.groups[groupKey]
		if !ok {
			g = &refGroup{
				Key:      groupKey,
				Aggs:     make([]agg.Aggregator, len(m.fields)),
				Entities: map[string]*event.Entity{},
				Events:   map[string]*event.Event{},
			}
			for i, f := range m.fields {
				a, err := agg.New(f.AggName, f.AggParams)
				if err != nil {
					// Validated in newRefManager; unreachable.
					panic(err)
				}
				g.Aggs[i] = a
			}
			w.groups[groupKey] = g
		}
		out = append(out, g)
	}
	m.groupScratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// Touch opens the windows containing t without folding any group state.
// Sharded query replicas use it for events owned by another shard: the
// window must still exist (and later close) here so that window-close
// counts and empty-snapshot cadence stay identical on every shard, but no
// group accumulates the event.
func (m *refManager) Touch(t time.Time) {
	// eachWindow keeps this allocation-free: Touch sits on the sharded
	// hot path for every non-owned pattern hit.
	m.spec.eachWindow(t.UnixNano(), func(id ID) {
		if m.hasWM && !m.spec.End(id).After(m.watermark) {
			// refClosed here too (the owning shard counts it as late).
			return
		}
		if _, ok := m.open[id]; !ok {
			m.open[id] = &refOpenWindow{id: id, groups: map[string]*refGroup{}}
		}
	})
}

// Advance moves the watermark to t and returns all windows whose end has
// passed, in ascending end order.
func (m *refManager) Advance(t time.Time) []refClosed {
	if m.hasWM && !t.After(m.watermark) {
		return nil
	}
	m.watermark = t
	m.hasWM = true
	var closed []refClosed
	for id, w := range m.open {
		if !m.spec.End(id).After(t) {
			closed = append(closed, refClosed{ID: id, End: m.spec.End(id), Groups: w.groups})
			delete(m.open, id)
		}
	}
	sort.Slice(closed, func(i, j int) bool { return closed[i].ID < closed[j].ID })
	return closed
}

// Flush closes all remaining open windows (end of stream), in order.
func (m *refManager) Flush() []refClosed {
	var closed []refClosed
	for id, w := range m.open {
		closed = append(closed, refClosed{ID: id, End: m.spec.End(id), Groups: w.groups})
		delete(m.open, id)
	}
	sort.Slice(closed, func(i, j int) bool { return closed[i].ID < closed[j].ID })
	return closed
}

// OpenWindows reports how many windows are currently open.
func (m *refManager) OpenWindows() int { return len(m.open) }

// SnapshotGroup freezes g's aggregates for closed window id.
func (m *refManager) SnapshotGroup(id ID, g *refGroup) *refSnapshot {
	fields := make(map[string]value.Value, len(m.fields))
	for i, f := range m.fields {
		fields[f.Name] = g.Aggs[i].Result()
	}
	return &refSnapshot{WindowID: id, Fields: fields, Entities: g.Entities, Events: g.Events, Count: g.Count}
}

// EmptySnapshot produces the snapshot a group would have for a window with
// no matched events (avg/sum 0, empty set, ...): used to keep state history
// contiguous for groups that temporarily go quiet.
func (m *refManager) EmptySnapshot(id ID) *refSnapshot {
	fields := make(map[string]value.Value, len(m.fields))
	for _, f := range m.fields {
		a, err := agg.New(f.AggName, f.AggParams)
		if err != nil {
			panic(err) // validated in newRefManager
		}
		fields[f.Name] = a.Result()
	}
	return &refSnapshot{WindowID: id, Fields: fields}
}

// AppendState appends the manager's full state: watermark, late-event
// counter, and every open window's groups with their aggregator
// accumulators. Windows and groups are emitted in sorted order so equal
// states encode identically.
func (m *refManager) AppendState(b []byte) ([]byte, error) {
	b = wire.AppendBool(b, m.hasWM)
	if m.hasWM {
		b = wire.AppendTime(b, m.watermark)
	} else {
		b = wire.AppendVarint(b, 0)
	}
	b = wire.AppendVarint(b, m.LateEvents)

	ids := make([]ID, 0, len(m.open))
	for id := range m.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b = wire.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		w := m.open[id]
		b = wire.AppendVarint(b, int64(id))
		keys := make([]string, 0, len(w.groups))
		for k := range w.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = wire.AppendUvarint(b, uint64(len(keys)))
		for _, key := range keys {
			var err error
			if b, err = m.appendGroup(b, w.groups[key]); err != nil {
				return b, err
			}
		}
	}
	return b, nil
}

func (m *refManager) appendGroup(b []byte, g *refGroup) ([]byte, error) {
	b = wire.AppendString(b, g.Key)
	b = wire.AppendVarint(b, int64(g.Count))
	b = refAppendEntities(b, g.Entities)
	b = refAppendEvents(b, g.Events)
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
func (m *refManager) ReadState(r *wire.Reader, keep func(string) bool, disjoint bool) error {
	hasWM := r.Bool()
	wmNanos := r.Varint()
	late := r.Varint()
	if r.Err() != nil {
		return r.Err()
	}
	if hasWM {
		wm := time.Unix(0, wmNanos)
		if !m.hasWM || wm.After(m.watermark) {
			m.watermark = wm
			m.hasWM = true
		}
	}
	if disjoint {
		m.LateEvents += late
	}
	nWin := r.Count(2)
	for i := 0; i < nWin && r.Err() == nil; i++ {
		id := ID(r.Varint())
		w, ok := m.open[id]
		if !ok {
			w = &refOpenWindow{id: id, groups: map[string]*refGroup{}}
			m.open[id] = w
		}
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
	}
	return r.Err()
}

func (m *refManager) readGroup(r *wire.Reader) (*refGroup, error) {
	g := &refGroup{
		Key:      r.String(),
		Count:    int(r.Varint()),
		Entities: refReadEntities(r),
		Events:   refReadEvents(r),
	}
	if g.Entities == nil {
		g.Entities = map[string]*event.Entity{}
	}
	if g.Events == nil {
		g.Events = map[string]*event.Event{}
	}
	nAggs := r.Count(1)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nAggs != len(m.fields) {
		return nil, fmt.Errorf("window: snapshot has %d aggregators, manager has %d state fields", nAggs, len(m.fields))
	}
	g.Aggs = make([]agg.Aggregator, nAggs)
	for i, f := range m.fields {
		a, err := agg.New(f.AggName, f.AggParams)
		if err != nil {
			return nil, err // validated in newRefManager; unreachable
		}
		if err := agg.ReadState(r, a); err != nil {
			return nil, err
		}
		g.Aggs[i] = a
	}
	return g, r.Err()
}

// ---------------------------------------------------------------------------
// Binding maps
// ---------------------------------------------------------------------------

func refAppendEntities(b []byte, m map[string]*event.Entity) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = wire.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendString(b, k)
		b = wire.AppendEntity(b, m[k])
	}
	return b
}

func refReadEntities(r *wire.Reader) map[string]*event.Entity {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]*event.Entity, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		e := r.ReadEntity()
		m[k] = &e
	}
	return m
}

func refAppendEvents(b []byte, m map[string]*event.Event) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = wire.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendString(b, k)
		b = wire.AppendEvent(b, m[k])
	}
	return b
}

func refReadEvents(r *wire.Reader) map[string]*event.Event {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]*event.Event, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		m[k] = r.ReadEvent()
	}
	return m
}
