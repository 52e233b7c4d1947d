package matcher

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"saql/internal/event"
	"saql/internal/pcode"
	"saql/internal/wire"
)

// stateQuery is the rule query the state tests restore into: an ordered
// pair, an unordered step, and a process variable named on both sides.
const stateQuery = `proc p1 write file f1 as e0
proc p2 read file f1 as e1
proc p2 start proc p2 as e2
with e0 -> e1
return p1`

// appendPartial encodes one partial the way AppendState does, with the
// stored entity keys given rather than derived.
func appendPartial(b []byte, mask uint64, nOrdered int, events []*event.Event, keys []entityKey) []byte {
	b = wire.AppendUvarint(b, mask)
	b = wire.AppendVarint(b, int64(nOrdered))
	b = wire.AppendTime(b, base)
	b = wire.AppendTime(b, base)
	b = wire.AppendUvarint(b, uint64(len(events)))
	for _, ev := range events {
		b = wire.AppendBool(b, ev != nil)
		if ev != nil {
			b = wire.AppendEvent(b, ev)
		}
	}
	b = wire.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendString(b, k.name)
		b = wire.AppendString(b, k.key)
	}
	return b
}

// TestReadStateRejectsMalformedPartials: a join reads the event of every
// matched pattern, so ReadState refuses — with an error, not a panic — any
// partial its matcher could not have written.
func TestReadStateRejectsMalformedPartials(t *testing.T) {
	writer := &event.Event{Time: base, Subject: event.Process("w.exe", 1), Op: event.OpWrite, Object: event.File("f")}
	reader := &event.Event{Time: base, Subject: event.Process("r.exe", 2), Op: event.OpRead, Object: event.File("f")}
	keys := []entityKey{{"f1", "f:f"}, {"p1", "p:w.exe/1"}}
	both := []entityKey{{"f1", "f:f"}, {"p1", "p:w.exe/1"}, {"p2", "p:r.exe/2"}}
	cases := []struct {
		name     string
		mask     uint64
		nOrdered int
		events   []*event.Event
		keys     []entityKey
		err      string // "" accepts
	}{
		{"valid", 0b001, 1, []*event.Event{writer, nil, nil}, keys, ""},
		{"valid pair", 0b011, 2, []*event.Event{writer, reader, nil}, both, ""},
		{"mask beyond patterns", 0b1001, 1, []*event.Event{writer, nil, nil}, keys, "matches patterns"},
		{"mask at bit 63", 1<<63 | 1, 1, []*event.Event{writer, nil, nil}, keys, "matches patterns"},
		{"nil matched event", 0b011, 2, []*event.Event{writer, nil, nil}, keys, "disagrees with its match mask"},
		{"unmatched event", 0b001, 1, []*event.Event{writer, reader, nil}, keys, "disagrees with its match mask"},
		{"ordered count", 0b001, 0, []*event.Event{writer, nil, nil}, keys, "ordered patterns"},
		{"wrong key", 0b001, 1, []*event.Event{writer, nil, nil}, []entityKey{{"f1", "f:g"}, {"p1", "p:w.exe/1"}}, "entity keys"},
		{"missing key", 0b001, 1, []*event.Event{writer, nil, nil}, keys[:1], "entity keys"},
		{"extra key", 0b001, 1, []*event.Event{writer, nil, nil}, both, "entity keys"},
		{"unsorted keys", 0b001, 1, []*event.Event{writer, nil, nil}, []entityKey{keys[1], keys[0]}, "entity keys"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := seqOf(t, stateQuery, Config{})
			b := wire.AppendVarint(nil, 0)
			b = wire.AppendVarint(b, 0)
			b = wire.AppendUvarint(b, 1)
			b = appendPartial(b, c.mask, c.nOrdered, c.events, c.keys)
			err := m.ReadState(wire.NewReader(b))
			switch {
			case c.err == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.err == "" && m.PartialCount() != 1:
				t.Fatalf("%d partials restored, want 1", m.PartialCount())
			case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
				t.Fatalf("error %v, want one containing %q", err, c.err)
			case c.err != "" && m.PartialCount() != 0:
				t.Fatalf("a rejected partial was restored")
			}
		})
	}
}

// stateMatcher compiles stateQuery with a small horizon and partial cap, on
// both sides of the differential.
func stateMatcher(t testing.TB) (*SeqMatcher, *refSeqMatcher, matcherCase) {
	pats, q := patternsOf(t, stateQuery)
	c := matcherCase{
		src:    stateQuery,
		pats:   pats,
		global: pcode.CompileGlobals(q.Globals, nil),
		order:  []int{0, 1},
		cfg:    Config{Horizon: 20 * time.Second, MaxPartials: 8},
	}
	m, err := NewSeqMatcher(c.pats, c.order, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefSeqMatcher(c.pats, c.global, c.order, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, ref, c
}

// FuzzMatcherState: ReadState either returns an error or restores a state
// the reference matcher (matcher_ref_test.go) restores alike — the same
// partials, re-encoded to the same bytes, completing the same matches over
// a following stream. Seeded with real states of stateQuery.
func FuzzMatcherState(f *testing.F) {
	m, _, c := stateMatcher(f)
	rng := rand.New(rand.NewSource(1))
	at := base
	for step := range 120 {
		at = at.Add(time.Duration(rng.Intn(3)) * time.Second)
		ev := randomMatcherEvent(rng, uint64(step), at)
		m.ObserveHits(ev, hitsOf(c.pats, c.global, ev))
		if step%30 == 29 {
			f.Add(m.AppendState(nil))
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ref, c := stateMatcher(t)
		if m.ReadState(wire.NewReader(data)) != nil {
			return
		}
		if err := ref.ReadState(wire.NewReader(data)); err != nil {
			t.Fatalf("the reference rejects a state the matcher restores: %v", err)
		}
		rng := rand.New(rand.NewSource(7))
		stream := make([]*event.Event, 60)
		at := base
		for step := range stream {
			at = at.Add(time.Duration(rng.Intn(3)) * time.Second)
			ev := randomMatcherEvent(rng, uint64(step), at)
			stream[step] = ev
			if got, want := m.AppendState(nil), ref.AppendState(nil); !bytes.Equal(got, want) {
				t.Fatalf("step %d: state bytes differ from the reference's", step)
			}
			sameMatches(t, step, stream, m.ObserveHits(ev, hitsOf(c.pats, c.global, ev)), ref.Observe(ev))
		}
	})
}
