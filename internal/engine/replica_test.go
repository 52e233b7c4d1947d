package engine

// The fence of Replica: a query's shard and evaluation replicas share its
// compiled program instead of compiling its source again, so a replica must
// run exactly as a fresh compile does, start with none of its source's
// state, and share nothing it writes — not with its source, not with its
// siblings, not across goroutines.

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"saql/internal/conformance"
	"saql/internal/event"
)

// replicaStream is one stream the corpus runs over.
type replicaStream struct {
	name string
	evs  []*event.Event
}

// replicaStreams are the demo stream and a disordered one whose late events
// fall behind closed windows.
func replicaStreams(t *testing.T) []replicaStream {
	return []replicaStream{
		{"demo", demoStream(t)},
		{"disorder", conformance.Disorder{Seed: 3, Start: t0, Events: 2400, Window: time.Second, Late: 3, Jump: 4 * time.Second}.Stream()},
	}
}

// replicaRun drives one query on its own as a scheduler would — a paused
// query is offered nothing — and keeps the error reports it raises and the
// alerts of its last step.
type replicaRun struct {
	q      *Query
	alerts []*Alert // the last step's
	raised int
	errs   []string
}

func newReplicaRun(q *Query) *replicaRun {
	q.SetClock(func() time.Time { return t0 })
	return &replicaRun{q: q}
}

func (r *replicaRun) report(err error) { r.errs = append(r.errs, err.Error()) }

func (r *replicaRun) keep(alerts []*Alert) {
	r.alerts = alerts
	r.raised += len(alerts)
}

func (r *replicaRun) step(ev *event.Event) {
	if r.q.Paused() {
		r.keep(nil)
	} else {
		r.keep(r.q.soloIngest(ev, r.q.Hits(ev), r.report))
	}
}

func (r *replicaRun) flush() { r.keep(r.q.soloFlush(r.report)) }

// sameStep fails unless got and want raised the same alerts at their last
// step: the event ev, or the flush when ev is nil. Alerts that are not deeply
// equal (a NaN among their values) may still render the same.
func sameStep(t *testing.T, ev *event.Event, got, want *replicaRun) {
	t.Helper()
	if reflect.DeepEqual(got.alerts, want.alerts) {
		return
	}
	render := func(alerts []*Alert) (out []string) {
		for _, a := range alerts {
			out = append(out, a.String())
		}
		return out
	}
	if g, w := render(got.alerts), render(want.alerts); !slices.Equal(g, w) {
		at := "flush"
		if ev != nil {
			at = ev.String()
		}
		t.Fatalf("%s: alerts diverge:\n  replica: %q\n  compile: %q", at, g, w)
	}
}

// sameRun fails unless got and want have raised as many alerts and the same
// error reports, and hold the same counters and the same encoded state.
func sameRun(t *testing.T, at string, got, want *replicaRun) {
	t.Helper()
	if got.raised != want.raised {
		t.Fatalf("%s: the replica raised %d alerts, the compile %d", at, got.raised, want.raised)
	}
	if fmt.Sprint(got.errs) != fmt.Sprint(want.errs) {
		t.Fatalf("%s: error reports diverge:\n  replica: %d %.300v\n  compile: %d %.300v", at, len(got.errs), got.errs, len(want.errs), want.errs)
	}
	if g, w := got.q.Stats(), want.q.Stats(); g != w {
		t.Fatalf("%s: stats diverge:\n  replica: %+v\n  compile: %+v", at, g, w)
	}
	g, gerr := got.q.EncodeState()
	w, werr := want.q.EncodeState()
	if gerr != nil || werr != nil || string(g) != string(w) {
		t.Fatalf("%s: encoded state diverges (%d bytes, %v; compile %d bytes, %v)", at, len(g), gerr, len(w), werr)
	}
}

// TestReplicaMatchesFreshCompile holds a Replica to a fresh compile of the
// same source over the conformance corpus on the demo stream and on a
// disordered one: the same alerts, error reports and QueryStats, and a
// byte-identical EncodeState, when taken, mid-stream and after the flush. A
// replica is taken from a primary that never ran (cold), from one that ran
// half the stream (warm: the replica starts empty, the primary's state stays
// behind) and from a warm one then paused (the replica starts paused, and
// both resume a third of the way in). The slot-tables subtest holds each
// replica's binding-slot table to its own.
func TestReplicaMatchesFreshCompile(t *testing.T) {
	for _, s := range replicaStreams(t) {
		for _, c := range conformance.Corpus {
			for _, from := range []string{"cold", "warm", "paused"} {
				t.Run(s.name+"/"+c.Name+"/"+from, func(t *testing.T) {
					primary := compile(t, c.Name, c.Src)
					fresh := newReplicaRun(compile(t, c.Name, c.Src))
					if from != "cold" {
						warm := newReplicaRun(primary)
						for _, ev := range s.evs[:len(s.evs)/2] {
							warm.step(ev)
						}
						if primary.Stats().Events == 0 {
							t.Fatal("the warm-up offered the primary no event")
						}
					}
					if from == "paused" {
						primary.SetPaused(true)
						fresh.q.SetPaused(true)
					}
					replica := newReplicaRun(primary.Replica())
					if replica.q.Paused() != fresh.q.Paused() {
						t.Fatalf("replica paused = %v, the primary's flag is %v", replica.q.Paused(), primary.Paused())
					}
					sameRun(t, "taken", replica, fresh)
					for i, ev := range s.evs {
						if from == "paused" && i == len(s.evs)/3 {
							replica.q.SetPaused(false)
							fresh.q.SetPaused(false)
						}
						replica.step(ev)
						fresh.step(ev)
						sameStep(t, ev, replica, fresh)
						if i == len(s.evs)/2 {
							sameRun(t, "mid-stream", replica, fresh)
						}
					}
					sameRun(t, "streamed", replica, fresh)
					replica.flush()
					fresh.flush()
					sameStep(t, nil, replica, fresh)
					sameRun(t, "flushed", replica, fresh)
				})
			}
		}
	}
	t.Run("slot-tables", testReplicaSlotTables)
}

// testReplicaSlotTables: a restore may give a replica's window manager a
// binding slot its query does not declare (readEntities, readEvents: a name
// carried over from an older query). Each replica's slot table is its own:
// a slot one adds is never another's, and a replica taken afterwards starts
// from the compiled table, as a fresh compile does. Besides the corpus it
// takes a query of three entity variables and three aliases: tables with
// room to grow in place, where sharing one would show.
func testReplicaSlotTables(t *testing.T) {
	three := conformance.Case{Name: "three-slots", Src: `proc p start proc c as e1
proc c write ip i as e2
proc p write ip i as e3 #time(30 s)
state ss { n := count(e1) } group by p
alert ss.n > 0
return p, ss.n`}
	for _, c := range append(slices.Clip(conformance.Corpus), three) {
		primary := compile(t, c.Name, c.Src)
		if !primary.stateful {
			continue
		}
		want := compile(t, c.Name, c.Src).winMgr.EntitySlot("restored-only")
		a, b := primary.Replica(), primary.Replica()
		ea, va := a.winMgr.EntitySlot("only-a"), a.winMgr.EventSlot("only-a")
		b.winMgr.EntitySlot("only-b")
		b.winMgr.EventSlot("only-b")
		primary.winMgr.EntitySlot("only-primary")
		if a.winMgr.EntitySlot("only-a") != ea || a.winMgr.EventSlot("only-a") != va {
			t.Fatalf("%s: a sibling replica's new slot overwrote this replica's", c.Name)
		}
		if got := primary.Replica().winMgr.EntitySlot("restored-only"); got != want || ea != want {
			t.Fatalf("%s: a new replica's first added slot is %d (the first replica's %d), a fresh compile's %d", c.Name, got, ea, want)
		}
	}
}

// TestReplicasRunConcurrently runs replicas of one compiled program on
// several goroutines at once, each over the whole stream, under -race in CI:
// whatever they share must be read-only. Each must end as a fresh compile run
// alone does.
func TestReplicasRunConcurrently(t *testing.T) {
	const replicas = 4
	evs := conformance.Disorder{Seed: 7, Start: t0, Events: 1200, Window: time.Second, Late: 3, Jump: 4 * time.Second}.Stream()
	for _, c := range conformance.Corpus {
		t.Run(c.Name, func(t *testing.T) {
			primary := compile(t, c.Name, c.Src)
			want := newReplicaRun(compile(t, c.Name, c.Src))
			for _, ev := range evs {
				want.step(ev)
			}
			want.flush()
			runs := make([]*replicaRun, replicas)
			for i := range runs {
				runs[i] = newReplicaRun(primary.Replica())
			}
			var wg sync.WaitGroup
			for _, r := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, ev := range evs {
						r.step(ev)
					}
					r.flush()
				}()
			}
			wg.Wait()
			for i, r := range runs {
				sameRun(t, fmt.Sprintf("replica %d", i), r, want)
			}
		})
	}
}
