package scheduler

// The serial fold Process ran before it folded through the shard's applySet,
// kept as the oracle of the one fold driver: ingestLocked, with
// SliceLog.Offer and KeyClass.Key inlined over the exported calls they made
// (HitKey, KeyClass.Routed, SliceLog.Add/KeyFailed/Advance). It visits every
// variant set on every event: a rule set's active members ingest their hit
// sets; a stateful set observes the stream watermark before the event, keys
// its hits through a memo per key class, logs them and observes the stream
// watermark through the event. It counts the events it offers each query
// itself. The oracle drives a scheduler of its own through the one
// evaluator, so the fold is all that differs from Process.

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/window"
)

// refFold is the oracle: a scheduler it folds into the old way, and what the
// old fold counted on its own.
type refFold struct {
	s *Scheduler
	// memo holds the current event's keys: key class -> pattern -> key.
	memo map[int32]map[int]refKey
	// wm is the stream watermark of the events processed.
	wm event.Watermark
	// events counts the events offered to each query; keyEvals the keys
	// evaluated, failedKeys those of them that failed.
	events               map[string]int64
	keyEvals, failedKeys int64
}

type refKey struct {
	key string
	err error
}

func newRefFold(sharing bool) *refFold {
	return &refFold{s: New(nil, sharing), memo: map[int32]map[int]refKey{}, events: map[string]int64{}}
}

// process is Process as it was: the one evaluator on a batch of one, then
// every variant set offered the event.
func (r *refFold) process(ev *event.Event) []*engine.Alert {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Events++
	hits := s.evaluateBatchLocked([]*event.Event{ev})[0]
	s.seq++
	clear(r.memo)
	before, seen := r.wm.Time()
	through := r.wm.Through(ev.Time)
	var alerts []*engine.Alert
	for i := range s.sets {
		ls := &s.sets[i]
		if ls.log == nil {
			for k, q := range ls.members {
				if !q.Paused() {
					r.events[q.Name]++
					alerts = append(alerts, q.Ingest(ev, refSlotHits(hits, ls.slots[k]), s.report)...)
				}
			}
			continue
		}
		if ls.log.Idle() {
			continue
		}
		if seen {
			alerts = append(alerts, ls.log.Advance(before)...)
		}
		var h []int // the set's hits: its first active member's
		for k, q := range ls.members {
			if !q.Paused() {
				h = refSlotHits(hits, ls.slots[k])
				break
			}
		}
		for _, hi := range h {
			k := r.key(s.layout.Sets[i].Class, ls.members[0], hi, ev)
			if k.err != nil {
				ls.log.KeyFailed(ev.Time, k.err)
				continue
			}
			ls.log.Add(ev, hi, ls.kc.Routed(s.seq, hi, window.HashKey(k.key), k.key))
		}
		for _, q := range ls.members {
			if !q.Paused() {
				r.events[q.Name]++
			}
		}
		alerts = append(alerts, ls.log.Advance(through)...)
	}
	s.stats.Alerts += int64(len(alerts))
	return alerts
}

// key is KeyClass.Key without its probe: pattern hi's key of the current
// event for class, evaluated on q the first time the event asks.
func (r *refFold) key(class int32, q *engine.Query, hi int, ev *event.Event) refKey {
	m := r.memo[class]
	if m == nil {
		m = map[int]refKey{}
		r.memo[class] = m
	}
	k, ok := m[hi]
	if !ok {
		key, err := q.HitKey(hi, ev)
		k = refKey{key, err}
		m[hi] = k
		r.keyEvals++
		if err != nil {
			r.failedKeys++
		}
	}
	return k
}

// refSlotHits returns slot's hit set in hits: none for a slot hits does not
// cover.
func refSlotHits(hits [][]int, slot int) []int {
	if slot < 0 || slot >= len(hits) {
		return nil
	}
	return hits[slot]
}

// queryStats is QueryStats as the oracle counts it.
func (r *refFold) queryStats(name string) engine.QueryStats {
	st, _ := r.s.QueryStats(name)
	st.Events = r.events[name]
	return st
}

// apply runs one script step on the oracle's scheduler. A swapped-in query
// counts afresh, as a removed one would.
func (r *refFold) apply(t *testing.T, st DispatchStep) {
	t.Helper()
	st.apply(t, r.s)
	if st.Kind == "swap" || st.Kind == "remove" {
		delete(r.events, st.Name)
	}
}

// foldRefQueries join each dispatch case in the oracle's fence: window
// lengths of one stateful detection — one variant set — whose group key
// divides by the subject's pid modulo 3, and so fails for one process in
// three. The first two are registered before the stream, the third a third
// of the way in.
var foldRefQueries = []DispatchQuery{
	{"kf5", foldRefQuery(5)},
	{"kf7", foldRefQuery(7)},
	{"kf9", foldRefQuery(9)},
}

func foldRefQuery(seconds int) string {
	return fmt.Sprintf("proc p write ip i as e #time(%d s)\nstate ss { n := count(e)\namt := sum(e.amount) } group by p, 1000 / (p.pid %% 3)\nalert ss.n > 1\nreturn p, ss.n, ss.amt", seconds)
}

// TestFoldMatchesSerialOracle holds the one fold driver to the serial fold it
// replaced. Each dispatch case — random query sets and their pause, swap and
// remove script — gains the failing-key variant set above, paused and
// resumed member by member three times, a third member registered mid-stream,
// and a stream with a quarter of its events moved up to three seconds back
// and the ten after each resume two to four seconds back: a set's watermark
// is not every event's time, and a resumed member's jumps to the stream's.
// Serial Process, EvaluateBatch over random batches + ProcessWithHits, and
// the oracle, which visits every set at every event, then raise the same
// alert multiset on every event, and so does a second serial Process that is
// read only at the "stats" steps. Both Processes and the oracle agree on
// Stats after every event, and the batch side after every batch: GroupProbes
// and Alerts exactly, KeyEvals up to the fold's one re-derivation of each
// failing key. Every query's QueryStats and CaptureStates bytes agree with
// the oracle's at every script step, at one event in 32 between them, and at
// the end; the quiet Process is read at the "stats" steps — two events after
// each resume and after the registration, inside the sets' slices, where it
// has visited no set since the control — and at the end.
func TestFoldMatchesSerialOracle(t *testing.T) {
	for _, sd := range DispatchSeeds(t) {
		t.Run(sd.Label, func(t *testing.T) {
			c := NewDispatchCase(sd.Value)
			rng := rand.New(rand.NewSource(sd.Value))
			c.Queries = append(c.Queries, foldRefQueries[:2]...)
			n := len(c.Events)
			kf9 := foldRefQueries[2]
			c.Script = append(c.Script,
				DispatchStep{At: n / 3, Kind: "add", Name: kf9.Name, Src: kf9.Src},
				DispatchStep{At: n/3 + 2, Kind: "stats"})
			late := map[int]bool{} // the events right after a resume, which arrive late
			for _, at := range []int{n / 4, n / 2, 3 * n / 4} {
				c.Script = append(c.Script,
					DispatchStep{At: at, Kind: "pause", Name: "kf5"},
					DispatchStep{At: at + 5, Kind: "pause", Name: "kf7"},
					DispatchStep{At: at + 40, Kind: "resume", Name: "kf7"},
					DispatchStep{At: at + 42, Kind: "stats"},
					DispatchStep{At: at + 45, Kind: "resume", Name: "kf5"},
					DispatchStep{At: at + 47, Kind: "stats"})
				for i := at + 40; i < at+50; i++ {
					late[i] = true
				}
			}
			slices.SortStableFunc(c.Script, func(a, b DispatchStep) int { return a.At - b.At })
			events := make([]*event.Event, n)
			for i, ev := range c.Events {
				e := *ev
				if late[i] {
					e.Time = e.Time.Add(-time.Duration(2000+rng.Intn(2000)) * time.Millisecond)
				} else if rng.Intn(4) == 0 {
					e.Time = e.Time.Add(-time.Duration(rng.Intn(3000)) * time.Millisecond)
				}
				events[i] = &e
			}

			// quiet is serial Process read only at the "stats" steps and at the
			// end. A read right after a control resets the bound on the sets
			// Process visits (advanceLocked), and so would hide a control that
			// leaves it unreset.
			serial, quiet, evalSide, foldSide := New(nil, c.Sharing), New(nil, c.Sharing), New(nil, c.Sharing), New(nil, c.Sharing)
			loud := map[string]*Scheduler{"Process": serial, "ProcessWithHits": foldSide}
			every := map[string]*Scheduler{"Process": serial, "quiet Process": quiet, "ProcessWithHits": foldSide}
			ref := newRefFold(c.Sharing)
			for _, q := range c.Queries {
				for _, s := range []*Scheduler{serial, quiet, evalSide, foldSide, ref.s} {
					if err := s.Add(compile(t, q.Name, q.Src)); err != nil {
						t.Fatal(err)
					}
				}
			}
			render := func(alerts []*engine.Alert) []string {
				out := make([]string, len(alerts))
				for i, a := range alerts {
					out[i] = a.String()
				}
				slices.Sort(out)
				return out
			}
			checkQueries := func(when string, sides map[string]*Scheduler) {
				t.Helper()
				names := slices.Sorted(maps.Keys(serial.queries))
				for _, name := range names {
					want := ref.queryStats(name)
					for side, s := range sides {
						if got, _ := s.QueryStats(name); got != want {
							t.Fatalf("%s: %s: %s stats %+v, oracle %+v", when, side, name, got, want)
						}
					}
				}
				want, _, err := ref.s.CaptureStates(names...)
				if err != nil {
					t.Fatal(err)
				}
				for side, s := range sides {
					got, _, err := s.CaptureStates(names...)
					if err != nil {
						t.Fatal(err)
					}
					for _, name := range names {
						if !bytes.Equal(got[name], want[name]) {
							t.Fatalf("%s: %s: %s captures %d bytes %x, oracle %d bytes %x", when, side, name, len(got[name]), got[name], len(want[name]), want[name])
						}
					}
				}
			}
			checkStats := func(when, side string, got Stats) {
				t.Helper()
				want := ref.s.Stats()
				if got.KeyEvals != ref.keyEvals+ref.failedKeys || got.GroupProbes != want.GroupProbes || got.Alerts != want.Alerts {
					t.Fatalf("%s: %s KeyEvals %d, GroupProbes %d, Alerts %d; oracle %d keys (%d failed), %d probes, %d alerts",
						when, side, got.KeyEvals, got.GroupProbes, got.Alerts, ref.keyEvals, ref.failedKeys, want.GroupProbes, want.Alerts)
				}
			}
			script := c.Script
			for i := 0; i < n; {
				for len(script) > 0 && script[0].At <= i {
					for _, s := range []*Scheduler{serial, quiet, evalSide, foldSide} {
						script[0].apply(t, s)
					}
					ref.apply(t, script[0])
					sides := loud
					if script[0].Kind == "stats" {
						sides = every
					}
					checkQueries(fmt.Sprintf("event %d, after %s %s", i, script[0].Kind, script[0].Name), sides)
					script = script[1:]
				}
				j := min(i+1+rng.Intn(64), n)
				if len(script) > 0 {
					j = min(j, script[0].At)
				}
				hs := evalSide.EvaluateBatch(events[i:j])
				for k, ev := range events[i:j] {
					when := fmt.Sprintf("event %d", i+k)
					want := render(ref.process(ev))
					if got := render(serial.Process(ev)); !slices.Equal(got, want) {
						t.Fatalf("%s: Process raised %v, oracle %v", when, got, want)
					}
					if got := render(quiet.Process(ev)); !slices.Equal(got, want) {
						t.Fatalf("%s: quiet Process raised %v, oracle %v", when, got, want)
					}
					if got := render(foldSide.ProcessWithHits(ev, hs[k])); !slices.Equal(got, want) {
						t.Fatalf("%s: ProcessWithHits raised %v, oracle %v", when, got, want)
					}
					checkStats(when, "Process", serial.Stats())
					checkStats(when, "quiet Process", quiet.Stats())
					if rng.Intn(32) == 0 {
						checkQueries(when, loud)
					}
				}
				es, fs := evalSide.Stats(), foldSide.Stats()
				fs.KeyEvals += es.KeyEvals
				checkStats(fmt.Sprintf("events %d-%d", i, j-1), "EvaluateBatch + ProcessWithHits", fs)
				i = j
			}
			want := render(ref.s.Flush())
			for side, s := range every {
				if got := render(s.Flush()); !slices.Equal(got, want) {
					t.Fatalf("%s: Flush raised %v, oracle %v", side, got, want)
				}
			}
			checkQueries("end", every)
			st := ref.s.Stats()
			t.Logf("seed %d: %d queries, %d events, %d alerts, %d keys evaluated (%d failed)",
				sd.Value, len(c.Queries), n, st.Alerts, ref.keyEvals, ref.failedKeys)
			if st.Alerts == 0 || ref.failedKeys == 0 {
				t.Fatalf("the case exercised too little: %d alerts, %d failing keys", st.Alerts, ref.failedKeys)
			}
		})
	}
}
