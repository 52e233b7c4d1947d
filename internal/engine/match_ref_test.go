package engine

// MatchBatch is where a query's patterns run: the scheduler's one evaluator
// calls it on a router batch and on a serial event alike, and Hits is it on a
// batch of one. This file keeps the per-event matcher it replaced — the global
// constraints, then every pattern, one event at a time — as the oracle it is
// held to.

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"saql/internal/conformance"
	"saql/internal/event"
)

// refHits is the per-event matcher MatchBatch replaced: the indices of the
// patterns ev satisfies, none when it fails the global constraints.
func refHits(q *Query, ev *event.Event) []int {
	if !q.global.Match(ev) {
		return nil
	}
	var hits []int
	for i, p := range q.patterns {
		if p.Matches(ev) {
			hits = append(hits, i)
		}
	}
	return hits
}

// matchShapes add global constraints of every kind to the corpus's queries:
// agentid pins in both spellings, a negated and a wildcard agentid, and a
// two-pattern query whose patterns hit on different events.
var matchShapes = []conformance.Case{
	{Name: "pinned", Src: `agentid = "WS-VICTIM"
proc p start proc c as e
return p, c`},
	{Name: "pinned-host", Src: `host = "db-1"
proc p write ip i as e
return p, i`},
	{Name: "not-agent", Src: `agentid != "ws-2"
proc p read || write file f as e
return p, f`},
	{Name: "agent-wildcard", Src: `agentid = "ws-%"
proc p start proc c as e1
proc p write ip i as e2
with e1 -> e2
return p`},
}

// TestMatchBatchMatchesPerEventHits holds MatchBatch to the per-event
// matcher over the conformance corpus, the fold's failing shapes and
// matchShapes, on the demo stream cut into random batches: swept over every
// event (at nil) and over a random ascending subset, each swept event's mask
// names exactly refHits' patterns, an unswept one keeps its mask, and Hits
// agrees event by event.
func TestMatchBatchMatchesPerEventHits(t *testing.T) {
	cases := append(foldCases(), matchShapes...)
	for _, sd := range closeSeeds(t) {
		t.Run(sd.label, func(t *testing.T) {
			events := demoStreamSeeded(t, sd.seed)
			rng := rand.New(rand.NewSource(sd.seed))
			for _, c := range cases {
				q := compile(t, c.Name, c.Src)
				hits := 0
				for i := 0; i < len(events); {
					evs := events[i:min(i+1+rng.Intn(96), len(events))]
					// Scratch comes back dirty from the last batch: a sweep must
					// write every mask it owns.
					masks, ok := make([]uint64, len(evs)), make([]bool, len(evs))
					for k := range masks {
						masks[k], ok[k] = ^uint64(0), true
					}
					q.MatchBatch(evs, nil, masks, ok)
					at := []int32{} // empty, not nil: nil would sweep every event
					for k := range evs {
						if rng.Intn(3) == 0 {
							at = append(at, int32(k))
						}
					}
					sub := make([]uint64, len(evs))
					for k := range sub {
						sub[k] = ^uint64(0) // what a sweep must leave alone
					}
					q.MatchBatch(evs, at, sub, ok)
					for k, ev := range evs {
						want := refHits(q, ev)
						hits += len(want)
						if got := maskHits(masks[k]); !slices.Equal(got, want) {
							t.Fatalf("%s, event %d: MatchBatch hits %v, per-event %v", c.Name, i+k, got, want)
						}
						if got := q.Hits(ev); !slices.Equal(got, want) {
							t.Fatalf("%s, event %d: Hits %v, per-event %v", c.Name, i+k, got, want)
						}
						if slices.Contains(at, int32(k)) {
							if sub[k] != masks[k] {
								t.Fatalf("%s, event %d: swept at a position, mask %b; over the batch %b", c.Name, i+k, sub[k], masks[k])
							}
						} else if sub[k] != ^uint64(0) {
							t.Fatalf("%s, event %d: an unswept position's mask was written", c.Name, i+k)
						}
					}
					i += len(evs)
				}
				if hits == 0 && c.Name == "pinned" {
					t.Errorf("%s never hit: the stream does not exercise its agentid pin", c.Name)
				}
			}
		})
	}
}

// maskHits lists the set bits of a MatchBatch mask, ascending; nil for none.
func maskHits(m uint64) []int {
	var out []int
	for ; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros64(m))
	}
	return out
}
