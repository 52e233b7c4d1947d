package matcher

// Checkpoint support: the multievent matcher's partial-match table — the
// in-flight joins a crash would otherwise forget mid-kill-chain — and its
// expiry/drop counters serialise into the wire format. Decoding appends, so
// restoring into a fresh matcher reproduces the table and restoring several
// per-shard blobs merges them (multievent queries are pinned, so in practice
// exactly one blob carries partials).

import (
	"fmt"
	"slices"
	"strings"

	"saql/internal/event"
	"saql/internal/wire"
)

// AppendState appends the matcher's runtime state. A partial is written as
// its progress, its events and, derived from them, each variable it binds
// with that entity's Key, in ascending variable name.
func (m *SeqMatcher) AppendState(b []byte) []byte {
	b = wire.AppendVarint(b, m.Expired)
	b = wire.AppendVarint(b, m.Dropped)
	b = wire.AppendUvarint(b, uint64(len(m.partials)))
	var keys []entityKey
	for _, pt := range m.partials {
		b = wire.AppendUvarint(b, uint64(pt.matched))
		b = wire.AppendVarint(b, int64(pt.nOrdered))
		b = wire.AppendTime(b, pt.lastTime)
		b = wire.AppendTime(b, pt.created)
		b = wire.AppendUvarint(b, uint64(len(pt.events)))
		for _, ev := range pt.events {
			if ev == nil {
				b = wire.AppendBool(b, false)
				continue
			}
			b = wire.AppendBool(b, true)
			b = wire.AppendEvent(b, ev)
		}
		keys = m.entityKeys(keys[:0], pt)
		b = wire.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = wire.AppendString(b, k.name)
			b = wire.AppendString(b, k.key)
		}
	}
	return b
}

// entityKey is a variable a partial binds and the Key of its entity.
type entityKey struct{ name, key string }

// entityKeys appends the variables pt binds, in ascending name, with their
// entities' keys.
func (m *SeqMatcher) entityKeys(dst []entityKey, pt *partial) []entityKey {
	n := len(dst)
	for v, name := range m.vars {
		if e := m.bound(pt, v); e != nil {
			dst = append(dst, entityKey{name, e.Key()})
		}
	}
	slices.SortFunc(dst[n:], func(a, b entityKey) int { return strings.Compare(a.name, b.name) })
	return dst
}

// ReadState folds an encoded matcher state into m: counters accumulate and
// partials append. The encoded per-partial event-slot count must match m's
// pattern count (the restoring matcher was compiled from the same source the
// snapshot was taken under), and each partial must be one m could have
// written (checkPartial).
func (m *SeqMatcher) ReadState(r *wire.Reader) error {
	m.Expired += r.Varint()
	m.Dropped += r.Varint()
	n := r.Count(4)
	for i := 0; i < n && r.Err() == nil; i++ {
		mask := r.Uvarint()
		pt := &partial{
			nOrdered: int(r.Varint()),
			lastTime: r.Time(),
			created:  r.Time(),
		}
		slots := r.Count(1)
		if r.Err() != nil {
			return r.Err()
		}
		if slots != len(m.patterns) {
			return fmt.Errorf("matcher: snapshot partial has %d event slots, matcher has %d patterns", slots, len(m.patterns))
		}
		pt.events = make([]*event.Event, slots)
		for j := 0; j < slots && r.Err() == nil; j++ {
			if r.Bool() {
				pt.events[j] = r.ReadEvent()
			}
		}
		nKeys := r.Count(2)
		keys := make([]entityKey, 0, nKeys)
		for j := 0; j < nKeys && r.Err() == nil; j++ {
			name := r.String()
			keys = append(keys, entityKey{name, r.String()})
		}
		if r.Err() != nil {
			return r.Err()
		}
		if err := m.checkPartial(pt, mask, keys); err != nil {
			return err
		}
		pt.matched = int(mask)
		m.partials = append(m.partials, pt)
	}
	return r.Err()
}

// checkPartial rejects a decoded partial that m could not have written: a
// join reads the event of every matched pattern, so a matched pattern's
// event must be present and an unmatched one's absent, the ordered count
// must be the events', and the stored entity keys must be the ones derived
// from its events.
func (m *SeqMatcher) checkPartial(pt *partial, mask uint64, keys []entityKey) error {
	if mask>>uint(len(m.patterns)) != 0 {
		return fmt.Errorf("matcher: snapshot partial matches patterns %#x, matcher has %d", mask, len(m.patterns))
	}
	nOrdered := 0
	for j, ev := range pt.events {
		if (ev != nil) != (mask>>uint(j)&1 != 0) {
			return fmt.Errorf("matcher: snapshot partial's event for pattern %d disagrees with its match mask %#x", j, mask)
		}
		if ev != nil && m.orderPos[j] != -1 {
			nOrdered++
		}
	}
	if pt.nOrdered != nOrdered {
		return fmt.Errorf("matcher: snapshot partial counts %d ordered patterns matched, its events %d", pt.nOrdered, nOrdered)
	}
	if derived := m.entityKeys(nil, pt); !slices.Equal(keys, derived) {
		return fmt.Errorf("matcher: snapshot partial's entity keys %v differ from its events' %v", keys, derived)
	}
	return nil
}
