package saql

// Tests for the concurrent ingestion API: lifecycle states, shard
// placement, and — most importantly — alert-for-alert equivalence between
// the sharded runtime (Start/Submit/Subscribe) and the legacy serial
// Process path. All tests here must be race-clean (go test -race).

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLifecycleErrors(t *testing.T) {
	eng := New(WithShards(2))
	if err := eng.Submit(&Event{}); !errors.Is(err, ErrNotRunning) {
		t.Errorf("Submit before Start = %v, want ErrNotRunning", err)
	}
	if err := eng.SubmitBatch([]*Event{{}}); !errors.Is(err, ErrNotRunning) {
		t.Errorf("SubmitBatch before Start = %v, want ErrNotRunning", err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := eng.Start(context.Background()); !errors.Is(err, ErrAlreadyRunning) {
		t.Errorf("second Start = %v, want ErrAlreadyRunning", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := eng.Submit(&Event{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := eng.Start(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Start after Close = %v, want ErrClosed", err)
	}
	if _, err := eng.Register("late", `proc p read file f return p`); !errors.Is(err, ErrClosed) {
		t.Errorf("Register after Close = %v, want ErrClosed", err)
	}
	// Subscribing to a closed engine yields an already-closed stream.
	sub := eng.Subscribe(4, Block)
	if _, ok := <-sub.C; ok {
		t.Error("subscription to closed engine delivered an alert")
	}
	sub.Close() // must not panic
}

func TestStartContextCancelCloses(t *testing.T) {
	eng := New(WithShards(2))
	ctx, cancel := context.WithCancel(context.Background())
	if err := eng.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := eng.Submit(&Event{Time: demoStart}); errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("engine did not close after context cancellation")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueryPlacement(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want Placement
	}{
		{"multievent-rule", `proc p write file f as e1
proc q read file f as e2
with e1 -> e2
return p, q`, PlacePinned},
		{"single-pattern-rule", `proc p write ip i as e
alert e.amount > 10
return p`, PlaceByEvent},
		{"distinct-rule", `proc p read file f return distinct p, f`, PlacePinned},
		{"grouped-stateful", `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 10
return p`, PlaceByGroup},
		{"global-stateful", `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) }
alert ss.amt > 10
return ss.amt`, PlacePinned},
		{"outlier", `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(5, 2)")
alert cluster.outlier
return i.dstip`, PlacePinned},
		{"grouped-invariant", `proc p start proc c as e #time(1 min)
state ss { kids := set(c.exe_name) } group by p
invariant[3] {
  known := empty_set
  known = known union ss.kids
}
alert |ss.kids diff known| > 0
return p`, PlaceByGroup},
	}
	eng := New()
	for _, c := range cases {
		h, err := eng.Register(c.name, c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := h.Placement(); got != c.want {
			t.Errorf("%s: placement = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRemoveQueryConsistency is the regression test for the query-removal
// state inconsistency: the registry entry must only disappear when the
// scheduler-side removal succeeds, so the registry and scheduler never
// disagree and removed names are always re-addable.
func TestRemoveQueryConsistency(t *testing.T) {
	const base = `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by p
return p, ss.amt`
	eng := New()
	// Build one master–dependent group: the dependent adds a stricter
	// alert threshold, so removing the master exercises the scheduler's
	// promotion path.
	master, err := eng.Register("master", base)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := eng.Register("dep", base+"\nalert ss.amt > 1000")
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Close(); err != nil {
		t.Fatalf("failed to remove master query: %v", err)
	}
	// After a successful removal both registry and scheduler must agree:
	// the name is gone from every view and immediately re-addable.
	if _, ok := eng.Query("master"); ok {
		t.Error("removed query still in registry")
	}
	for m := range eng.groups() {
		if m == "master" {
			t.Error("removed query still scheduled")
		}
	}
	if _, err := eng.Register("master", base); err != nil {
		t.Errorf("re-adding a removed query failed: %v", err)
	}
	if eng.Stats().Queries != 2 {
		t.Errorf("query count = %d, want 2", eng.Stats().Queries)
	}
	// Double removal is a no-op and leaves the survivor intact.
	if err := dep.Close(); err != nil || dep.Close() != nil || !closed(dep) {
		t.Error("double removal inconsistency")
	}
	if _, ok := eng.Query("master"); !ok {
		t.Error("surviving query lost")
	}
}

func TestRemoveQueryWhileRunning(t *testing.T) {
	eng := New(WithShards(3))
	h, err := eng.Register("q1", `proc p write ip i as e
alert e.amount > 100
return p`)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := h.Close(); err != nil {
		t.Errorf("removal while running failed: %v", err)
	}
	if _, ok := eng.Query("q1"); ok {
		t.Error("removed query still registered while running")
	}
	if _, err := eng.Register("q1", `proc p write ip i as e
alert e.amount > 100
return p`); err != nil {
		t.Errorf("re-add while running: %v", err)
	}
}

// concurrencyWorkload builds an order-tolerant event set: every event falls
// inside one long window, so aggregation is commutative and the serial
// baseline is comparable no matter how concurrent submitters interleave.
// It spreads activity over many processes (group-by keys) so every shard
// owns work.
func concurrencyWorkload(procs, eventsPerProc int) []*Event {
	var evs []*Event
	for p := 0; p < procs; p++ {
		proc := Process(fmt.Sprintf("worker-%03d.exe", p), int32(1000+p))
		for k := 0; k < eventsPerProc; k++ {
			amount := float64(100 + p*10 + k)
			if p%7 == 0 {
				amount += 1e6 // the noisy groups that must alert
			}
			evs = append(evs, &Event{
				Time:    demoStart.Add(time.Duration(p*eventsPerProc+k) * time.Millisecond),
				AgentID: "db-1",
				Subject: proc,
				Op:      OpWrite,
				Object:  NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.%d.%d", p/200, p%200), 443),
				Amount:  amount,
			})
		}
	}
	return evs
}

var concurrencyQueries = []struct{ name, src string }{
	// By-group placement: per-process sum over one big window.
	{"grouped-sum", `proc p write ip i as e #time(1 h)
state ss { amt := sum(e.amount)
           n := count(e) } group by p
alert ss.amt > 1000000
return p, ss.amt, ss.n`},
	// By-event placement: stateless per-event threshold rule.
	{"big-write", `proc p write ip i as e
alert e.amount > 1000000
return p, e.amount`},
	// Pinned placement: one global group needing the total stream.
	{"global-volume", `proc p write ip i as e #time(1 h)
state ss { total := sum(e.amount) }
alert ss.total > 5000000
return ss.total`},
}

// alertCountKey buckets alerts by query and group for the determinism
// comparison (per-event rule alerts bucket by their returned values).
func alertCountKey(a *Alert) string {
	vals := make([]string, 0, len(a.Values))
	for _, nv := range a.Values {
		vals = append(vals, nv.Name+"="+nv.Val.String())
	}
	return a.Query + "|" + a.GroupKey + "|" + strings.Join(vals, ",")
}

func countAlerts(alerts []*Alert) map[string]int {
	out := map[string]int{}
	for _, a := range alerts {
		out[alertCountKey(a)]++
	}
	return out
}

// TestConcurrentSubmitMatchesSerial drives the sharded runtime from
// multiple submitter goroutines with two subscribers attached and checks
// that, per group-by key, the delivered alert multiset matches the legacy
// serial Process path over the same events.
func TestConcurrentSubmitMatchesSerial(t *testing.T) {
	const (
		procs     = 120
		perProc   = 40
		shards    = 4
		goroutine = 6
	)
	events := concurrencyWorkload(procs, perProc)

	// Serial baseline.
	serial := New()
	for _, q := range concurrencyQueries {
		if _, err := serial.Register(q.name, q.src); err != nil {
			t.Fatal(err)
		}
	}
	var want []*Alert
	for _, ev := range events {
		want = append(want, serial.Process(ev)...)
	}
	want = append(want, serial.Flush()...)
	if len(want) == 0 {
		t.Fatal("serial baseline produced no alerts; workload is broken")
	}

	// Concurrent run: multiple submitters, two subscribers.
	eng := New(WithShards(shards))
	for _, q := range concurrencyQueries {
		if _, err := eng.Register(q.name, q.src); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	subA := eng.Subscribe(256, Block)
	subB := eng.Subscribe(256, Block)
	collect := func(sub *AlertSubscription, out *[]*Alert, done *sync.WaitGroup) {
		defer done.Done()
		for a := range sub.C {
			*out = append(*out, a)
		}
	}
	var gotA, gotB []*Alert
	var consumers sync.WaitGroup
	consumers.Add(2)
	go collect(subA, &gotA, &consumers)
	go collect(subB, &gotB, &consumers)

	var submitters sync.WaitGroup
	for g := 0; g < goroutine; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			// Interleave: submitter g takes every goroutine-th slice,
			// mixing single Submit and SubmitBatch.
			for i := g * 50; i < len(events); i += goroutine * 50 {
				end := i + 50
				if end > len(events) {
					end = len(events)
				}
				if g%2 == 0 {
					if err := eng.SubmitBatch(events[i:end]); err != nil {
						t.Errorf("SubmitBatch: %v", err)
						return
					}
					continue
				}
				for _, ev := range events[i:end] {
					if err := eng.Submit(ev); err != nil {
						t.Errorf("Submit: %v", err)
						return
					}
				}
			}
		}(g)
	}
	submitters.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	consumers.Wait()

	if st := eng.Stats(); st.Events != int64(len(events)) {
		t.Errorf("events accepted = %d, want %d", st.Events, len(events))
	}
	wantCounts := countAlerts(want)
	for name, got := range map[string][]*Alert{"subscriber A": gotA, "subscriber B": gotB} {
		gotCounts := countAlerts(got)
		if len(gotCounts) != len(wantCounts) {
			t.Errorf("%s: %d distinct alert keys, serial baseline has %d",
				name, len(gotCounts), len(wantCounts))
		}
		for key, n := range wantCounts {
			if gotCounts[key] != n {
				t.Errorf("%s: alert %q count = %d, want %d", name, key, gotCounts[key], n)
			}
		}
		for key := range gotCounts {
			if _, ok := wantCounts[key]; !ok {
				t.Errorf("%s: unexpected alert %q", name, key)
			}
		}
	}
}

// alertIdentity is the full-fidelity comparison key used by the kill-chain
// equivalence test: everything except Detected (wall clock) and delivery
// order must match the serial engine exactly.
func alertIdentity(a *Alert) string {
	return a.EventTime.Format(time.RFC3339Nano) + "|" + alertCountKey(a)
}

// TestShardedKillChainMatchesSerial is the end-to-end acceptance check:
// Start → SubmitBatch → Subscribe over the APT-scenario conformance stream
// delivers exactly the alert set of the legacy serial Process path, for all
// 8 demo queries (rule, time-series, invariant, and outlier models across
// pinned, by-group, and by-event placements).
func TestShardedKillChainMatchesSerial(t *testing.T) {
	events, scenario := buildDemoStream(t, 20*time.Minute, 8*time.Minute)
	queries := scenario.DemoQueries(30*time.Second, 5)

	serial := New()
	for _, nq := range queries {
		if _, err := serial.Register(nq.Name, nq.SAQL); err != nil {
			t.Fatal(err)
		}
	}
	var want []*Alert
	for _, ev := range events {
		want = append(want, serial.Process(ev)...)
	}
	want = append(want, serial.Flush()...)
	if len(want) == 0 {
		t.Fatal("serial baseline produced no alerts")
	}

	eng := New(WithShards(4))
	for _, nq := range queries {
		if _, err := eng.Register(nq.Name, nq.SAQL); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscribe(1024, Block)
	var got []*Alert
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C {
			got = append(got, a)
		}
	}()
	// One submitter preserves the stream's total order, so even
	// order-sensitive (pinned) queries must agree exactly.
	for i := 0; i < len(events); i += 512 {
		end := i + 512
		if end > len(events) {
			end = len(events)
		}
		if err := eng.SubmitBatch(events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()

	toSorted := func(alerts []*Alert) []string {
		out := make([]string, 0, len(alerts))
		for _, a := range alerts {
			out = append(out, alertIdentity(a))
		}
		sort.Strings(out)
		return out
	}
	wantIDs, gotIDs := toSorted(want), toSorted(got)
	if len(wantIDs) != len(gotIDs) {
		t.Errorf("alert count: sharded=%d serial=%d", len(gotIDs), len(wantIDs))
	}
	for i := 0; i < len(wantIDs) && i < len(gotIDs); i++ {
		if wantIDs[i] != gotIDs[i] {
			t.Fatalf("alert sets diverge at #%d:\n  sharded: %s\n  serial:  %s", i, gotIDs[i], wantIDs[i])
		}
	}
}

// TestGroupKeyErrorCountMatchesSerial pins how a failing group key is
// accounted for: once per hit, whatever the shard count. The key is the one
// thing the router evaluates on a replica's behalf, so a failure must be
// routed to exactly one replica (the owner of the empty key) rather than
// surface on every shard holding one — and the windows the failing hits
// open must close as often as on the serial reference.
func TestGroupKeyErrorCountMatchesSerial(t *testing.T) {
	const hits = 10
	events := make([]*Event, hits)
	for i := range events {
		events[i] = &Event{
			Time:    demoStart.Add(time.Duration(i) * 700 * time.Millisecond),
			AgentID: "host-1",
			Subject: Process(fmt.Sprintf("svc-%d.exe", i%3), int32(100+i)),
			Op:      OpWrite,
			Object:  NetConn("10.0.0.2", 1433, "10.1.0.9", 443),
			Amount:  100,
		}
	}
	for _, key := range []string{"p.pid / 0", "e"} {
		src := fmt.Sprintf(`proc p write ip i as e #time(2 s)
state ss { amt := sum(e.amount) } group by %s
alert ss.amt > 0
return ss.amt`, key)
		var serialClosed int64
		for _, shards := range []int{0, 1, 2, 4, 8} {
			t.Run(fmt.Sprintf("group by %s/shards=%d", key, shards), func(t *testing.T) {
				var mu sync.Mutex
				var reported []*QueryError
				opts := []Option{WithErrorHandler(func(qe *QueryError) {
					mu.Lock()
					reported = append(reported, qe)
					mu.Unlock()
				})}
				if shards > 0 {
					opts = append(opts, WithShards(shards))
				}
				eng := New(opts...)
				if _, err := eng.Register("bad-key", src); err != nil {
					t.Fatal(err)
				}
				if shards == 0 {
					for _, ev := range events {
						eng.Process(ev)
					}
					eng.Flush()
				} else {
					if err := eng.Start(context.Background()); err != nil {
						t.Fatal(err)
					}
					if err := eng.SubmitBatch(events); err != nil {
						t.Fatal(err)
					}
					if err := eng.Close(); err != nil {
						t.Fatal(err)
					}
				}
				st, ok := eng.QueryStats("bad-key")
				if !ok {
					t.Fatal("query stats missing")
				}
				if st.EvalErrors != hits || len(reported) != hits || eng.ErrorCount() != hits {
					t.Errorf("%d hits with a failing key: EvalErrors=%d, %d errors handled, ErrorCount=%d; want %d each",
						hits, st.EvalErrors, len(reported), eng.ErrorCount(), hits)
				}
				if st.PatternHits != 0 || st.Alerts != 0 {
					t.Errorf("failing hits folded: %+v", st)
				}
				if shards == 0 {
					serialClosed = st.WindowsClosed
				} else if st.WindowsClosed != serialClosed {
					t.Errorf("windows closed = %d, serial closed %d", st.WindowsClosed, serialClosed)
				}
			})
		}
	}
}

// TestArgumentErrorsVisibleAfterProcess: an aggregation argument's error is
// reported when the slice holding its hit folds — here, with an hour-long
// window, not before Flush — but a never-started engine's Errors and
// ErrorCount fold first, so they hold the error of every event Process has
// returned from. An error handler calling them from inside the fold reads the
// reporter as it is rather than waiting on the fold it runs in.
func TestArgumentErrorsVisibleAfterProcess(t *testing.T) {
	var eng *Engine
	handled := 0
	eng = New(WithErrorHandler(func(*QueryError) {
		handled++
		_, _ = eng.Errors(), eng.ErrorCount()
	}))
	if _, err := eng.Register("root", `proc p write ip i as e #time(1 h)
state ss { r := sum(sqrt(e.amount - 500)) } group by p
alert ss.r > 1000000
return ss.r`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		eng.Process(&Event{
			Time:    demoStart.Add(time.Duration(i) * time.Second),
			AgentID: "host-1",
			Subject: Process("svc.exe", 100),
			Op:      OpWrite,
			Object:  NetConn("10.0.0.2", 1433, "10.1.0.9", 443),
			Amount:  float64(100 * i), // below 500 the square root fails
		})
		want := min(i+1, 5)
		if n, errs := eng.ErrorCount(), eng.Errors(); n != int64(want) || len(errs) != want || handled != want {
			t.Fatalf("after event %d: ErrorCount=%d, %d errors, %d handled; want %d each", i, n, len(errs), handled, want)
		}
	}
	if st, _ := eng.QueryStats("root"); st.EvalErrors != 5 || st.PatternHits != 10 {
		t.Errorf("stats %+v: want 5 errors over 10 hits", st)
	}
}

// TestHandleLifecycleRace hammers the control plane — Register, Pause,
// Resume, Update (with and without state carry), per-query Subscribe,
// Close, and Apply — from many goroutines while submitters keep the event
// stream flowing. It asserts nothing about alert contents (the conformance
// tests do); under -race it proves the handle API is data-race free against
// live ingestion.
func TestHandleLifecycleRace(t *testing.T) {
	const (
		operators = 4
		rounds    = 20
	)
	eng := New(WithShards(4), WithIngestQueue(256))
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var feeders, wg sync.WaitGroup

	// Submitters: keep events flowing under every control operation.
	for s := 0; s < 3; s++ {
		feeders.Add(1)
		go func(s int) {
			defer feeders.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ev := &Event{
					Time:    demoStart.Add(time.Duration(s*1000+i) * time.Millisecond),
					AgentID: "h",
					Subject: Process(fmt.Sprintf("p%d.exe", i%17), int32(i%17)),
					Op:      OpWrite,
					Object:  NetConn("10.0.0.1", 1, "10.0.0.2", 2),
					Amount:  float64(i % 1000),
				}
				if err := eng.Submit(ev); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Submit: %v", err)
					}
					return
				}
			}
		}(s)
	}

	src := `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 100000
return p, ss.amt`
	tightened := strings.Replace(src, "> 100000", "> 500000", 1)
	reshaped := strings.Replace(src, "#time(1 min)", "#time(2 min)", 1)

	// Operators: full handle lifecycle per round, on disjoint names.
	for o := 0; o < operators; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("q-%d-%d", o, i)
				h, err := eng.Register(name, src, WithLabel("op", name))
				if err != nil {
					t.Errorf("Register(%s): %v", name, err)
					return
				}
				sub := h.Subscribe(4, DropNewest)
				if err := h.Pause(); err != nil {
					t.Errorf("Pause(%s): %v", name, err)
				}
				if err := h.Resume(); err != nil {
					t.Errorf("Resume(%s): %v", name, err)
				}
				if err := h.Update(tightened, CarryWindowState()); err != nil {
					t.Errorf("Update(%s): %v", name, err)
				}
				if err := h.Update(reshaped); err != nil {
					t.Errorf("reshape Update(%s): %v", name, err)
				}
				if _, err := h.Stats(); err != nil {
					t.Errorf("Stats(%s): %v", name, err)
				}
				if err := h.Close(); err != nil {
					t.Errorf("Close(%s): %v", name, err)
				}
				if _, open := <-sub.C; open {
					// Drain the remainder; the channel must close.
					for range sub.C {
					}
				}
				if !errors.Is(sub.Err(), ErrQueryClosed) {
					t.Errorf("sub.Err(%s) = %v", name, sub.Err())
				}
			}
		}(o)
	}

	// One reconciler: re-Apply alternating querysets against its own names.
	wg.Add(1)
	go func() {
		defer wg.Done()
		setA, setB := NewQuerySet(), NewQuerySet()
		if err := setA.Add("managed-a", src); err != nil {
			t.Error(err)
			return
		}
		if err := setB.Add("managed-a", tightened); err != nil {
			t.Error(err)
			return
		}
		if err := setB.Add("managed-b", src); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < rounds; i++ {
			set := setA
			if i%2 == 1 {
				set = setB
			}
			if _, err := eng.Apply(context.Background(), set); err != nil {
				t.Errorf("Apply: %v", err)
				return
			}
		}
	}()

	// Let the operators finish, then stop the submitters and close.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("lifecycle hammer deadlocked")
	}
	close(stop)
	feeders.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// The last reconciliation (round rounds-1, odd) applied setB: exactly
	// its two managed queries survive the hammer.
	if n := eng.Stats().Queries; n != 2 {
		t.Errorf("surviving queries = %d, want 2", n)
	}
}

// TestSubmitBlockedReturnsOnClose: Submit waits for room in a full ingest
// queue, and Close releases it — the event is either accepted or refused with
// ErrClosed, never dropped. The alert handler holds the only shard on the
// first alert, so the router and then the one-slot queue back up behind it.
func TestSubmitBlockedReturnsOnClose(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var alerts atomic.Int64
	eng := New(WithShards(1), WithIngestQueue(1), WithAlertHandler(func(*Alert) {
		if alerts.Add(1) == 1 {
			close(entered)
			<-release
		}
	}))
	if _, err := eng.Register("q", `proc p write ip i as e
alert e.amount > 0
return p`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	submitted := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			ev := &Event{Time: demoStart.Add(time.Duration(i) * time.Millisecond),
				AgentID: "h", Subject: Process("a.exe", 1), Op: OpWrite,
				Object: NetConn("10.0.0.1", 1, "10.0.0.2", 2), Amount: 1}
			if err := eng.Submit(ev); err != nil {
				submitted <- err
				return
			}
			accepted.Add(1)
		}
	}()
	<-entered
	// The shard is held, so the submitter stops making progress once the
	// pipeline is full: wait until it has.
	for n := int64(-1); n != accepted.Load(); {
		n = accepted.Load()
		time.Sleep(20 * time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	select {
	case err := <-submitted:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("blocked Submit returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit still blocked after Close")
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Events != accepted.Load() || st.Dropped != 0 || alerts.Load() != st.Events {
		t.Errorf("accepted %d, Stats.Events %d, Dropped %d, alerts %d: every accepted event must raise its alert",
			accepted.Load(), st.Events, st.Dropped, alerts.Load())
	}
}

// TestFlushWhileRunning checks the flush barrier: everything submitted
// before Flush is reflected in the returned alerts.
func TestFlushWhileRunning(t *testing.T) {
	eng := New(WithShards(3))
	if _, err := eng.Register("sum", `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 50
return p, ss.amt`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 100; i++ {
		ev := &Event{Time: demoStart.Add(time.Duration(i) * time.Second),
			AgentID: "h", Subject: Process(fmt.Sprintf("p%d.exe", i%10), int32(i%10)),
			Op: OpWrite, Object: NetConn("10.0.0.1", 1, "10.0.0.2", 2), Amount: 100}
		if err := eng.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	alerts := eng.Flush()
	if len(alerts) == 0 {
		t.Error("Flush on a running engine returned no alerts")
	}
	if st := eng.Stats(); st.Events != 100 {
		t.Errorf("events = %d, want 100", st.Events)
	}
}
