package saql

// Allocation-regression gates for the ingest path. Broadcasting every event
// to every shard cost ~9 allocations per event (a channel send and hit-set
// copy per shard), and shipping a freshly allocated hit table with every hit
// event cost its slot count × 24 bytes; with hit sets resolved in the
// evaluation scheduler's scratch and ops riding pooled slabs, a steady-state
// stream allocates (almost) nothing per event at any shard count, and these
// tests fail if either creeps back up.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ingestCost registers variants window-length variants of one by-group sum
// query on a started engine, streams events of which one in hitEvery hits
// them all, and reports the steady-state heap allocations and bytes per
// event, engine-wide (submitter, router and every shard worker): the cheapest
// of five passes over the stream, because what a per-event cost adds it adds
// to every pass, while a slab the pool had to make or grow (tens of KB,
// whenever the router gets further ahead of the shards than it has been
// before) lands in one.
func ingestCost(t *testing.T, shards, variants, hitEvery int) (allocs, bytes float64) {
	t.Helper()
	eng := New(WithShards(shards), WithIngestQueue(64))
	// Non-matching events must allocate nothing beyond the shared evaluation
	// pass; a matching event pays one fold op for the variant set — one
	// directory probe, then a fold per variant — on the one shard owning its
	// group and a touch on the others. Nothing alerts, no window closes.
	for v := 0; v < variants; v++ {
		src := fmt.Sprintf(`proc p write ip i as e #time(%d h)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 1000000000000
return p, ss.amt`, 1+v)
		if _, err := eng.Register(fmt.Sprintf("grouped-sum-%d", v), src); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const batchSize = 512
	const batches = 4
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	exes := []string{"nginx", "sshd", "postgres", "redis-server"}
	all := make([][]*Event, batches)
	n := 0
	for b := range all {
		evs := make([]*Event, batchSize)
		for i := range evs {
			ev := &Event{
				Time:    base.Add(time.Duration(n) * 13 * time.Millisecond),
				AgentID: "host-1",
				Subject: Process(exes[n%len(exes)], int32(100+n%32)),
				Amount:  float64(n % 1000),
			}
			if n%hitEvery == 0 {
				ev.Op = OpWrite
				ev.Object = NetConn("", 0, "10.0.0.9", 443)
			} else {
				ev.Op = OpRead
				ev.Object = File("/var/log/syslog")
			}
			evs[i] = ev
			n++
		}
		all[b] = evs
	}
	pass := func() {
		for _, evs := range all {
			if err := eng.SubmitBatch(evs); err != nil {
				t.Fatal(err)
			}
		}
		// The stats capture rides the queue behind every submitted batch, so
		// its round trip is a full processing barrier: every allocation the
		// pass causes lands before it returns.
		if _, ok := eng.QueryStats("grouped-sum-0"); !ok {
			t.Fatal("query stats missing")
		}
	}
	// Warm up: pool slabs, window state, and the evaluation scratch reach
	// steady state before measuring.
	for range 3 {
		pass()
	}
	allocs, bytes = math.Inf(1), math.Inf(1)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/(batches*batchSize))
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/(batches*batchSize))
	}
	if errs := eng.Errors(); len(errs) != 0 {
		t.Fatalf("runtime reported errors: %v", errs)
	}
	return allocs, bytes
}

// TestIngestAllocsPerEventGate: a mixed stream — 5% of events hit the one
// registered query — allocates at most a tenth of an allocation per event
// (measured: 0.02–0.03, the control round trips and an occasional slab).
func TestIngestAllocsPerEventGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full runs")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			allocs, bytes := ingestCost(t, shards, 1, 20)
			t.Logf("ingest allocations: %.3f/event, %.1f B/event", allocs, bytes)
			if allocs > 0.1 {
				t.Fatalf("ingest allocates %.3f/event, gate is 0.1/event", allocs)
			}
		})
	}
}

// TestIngestBytesPerEventGate is the case the allocation count alone let
// through: every event hits all eight variants of a query, so a per-event hit
// table — one slice header per registered query, allocated by the evaluation
// stage and shipped to the shards — cost 8 × 24 bytes and more per event while
// staying under any allocs-per-event gate (chunked allocation). Hit sets now
// live in scratch and the shards are handed ops in pooled slabs: no per-event
// hit-table bytes at all.
func TestIngestBytesPerEventGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full runs")
	}
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed: every pass makes slabs")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			allocs, bytes := ingestCost(t, shards, 8, 1)
			t.Logf("ingest allocations: %.3f/event, %.1f B/event", allocs, bytes)
			if bytes > 16 {
				t.Fatalf("ingest allocates %.1f B/event, gate is 16 B/event", bytes)
			}
		})
	}
}

type foldShape struct {
	name, src string
	op        Op
	object    func(k int) Entity
}

// window returns n hits of the shape inside window w of its 10 s tumbling
// sequence, spread over the given number of groups.
func (sh foldShape) window(w, n, groups int) []*Event {
	evs := make([]*Event, n)
	for k := range evs {
		evs[k] = &Event{
			Time:    demoStart.Add(time.Duration(w)*10*time.Second + time.Duration(k)*time.Millisecond),
			AgentID: "host-1",
			Subject: Process(fmt.Sprintf("svc-%d.exe", k%groups), int32(100+k%groups)),
			Op:      sh.op,
			Object:  sh.object(k),
			Amount:  float64(1000 + k),
		}
	}
	return evs
}

// foldShapes are the four fleet-wide stateful query shapes of the repo
// benchmark's qs-hot set (bench/queries.go), each with the event that hits
// it — a time-series average, a DBSCAN outlier model, an invariant over a set,
// and a count threshold — plus the two shapes that built an environment per
// hit while the compiled fold was partial: a query with no group-by, and an
// aggregation argument that calls a scalar function; and a set whose members
// differ in one state field, so that a variant set's program table is wider
// than any member's arguments.
var foldShapes = []foldShape{
	{"ts-avg", `proc p write ip i as evt #time(10 s)
state[3] ss { avg_amount := avg(evt.amount) } group by p
alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 400000)
return p, ss[0].avg_amount`, OpWrite, func(k int) Entity { return NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.0.%d", k%200), 443) }},
	{"outlier-dst", `proc p read || write ip i as evt #time(10 s)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(200000, 3)")
alert cluster.outlier && ss.amt > 2000000
return i.dstip, ss.amt`, OpWrite, func(k int) Entity { return NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.0.%d", k%200), 443) }},
	{"inv-children", `proc p1 start proc p2 as evt #time(10 s)
state ss { kids := set(p2.exe_name) } group by p1
invariant[3][offline] {
  a := empty_set
  a = a union ss.kids
}
alert |ss.kids diff a| > 0
return p1, ss.kids`, OpStart, func(k int) Entity { return Process(fmt.Sprintf("child-%d.exe", k%5), int32(9000+k%5)) }},
	{"count-files", `proc p read || write file f as evt #time(10 s)
state ss { n := count(evt) } group by p
alert ss.n > 1000000
return p, ss.n`, OpRead, func(k int) Entity { return File(fmt.Sprintf("/var/data/%d.db", k%50)) }},
	{"global-sum", `proc p write ip i as evt #time(10 s)
state ss { total := sum(evt.amount) }
alert ss.total > 1000000000000
return ss.total`, OpWrite, func(k int) Entity { return NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.0.%d", k%200), 443) }},
	{"abs-arg", `proc p write ip i as evt #time(10 s)
state ss { amt := sum(abs(evt.amount)) } group by p
alert ss.amt > 1000000000000
return p, ss.amt`, OpWrite, func(k int) Entity { return NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.0.%d", k%200), 443) }},
	{"mixed-fields", `proc p write ip i as evt #time(10 s)
state ss { amt := sum(evt.amount)
           top := max(evt.amount) } group by p
alert ss.amt > 1000000000000
return p, ss.amt, ss.top`, OpWrite, func(k int) Entity { return NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.0.%d", k%200), 443) }},
}

// TestStatefulFoldAllocsGate holds the state maintainer to its allocation
// budget on the serial Process path: folding a hit into a group that already
// exists in an open window allocates nothing — not for the hit set, the
// bindings, the aggregator arguments or the watermark advance — closing
// a window allocates in proportion to its groups, at most closeAllocsPerGroup
// each plus a fixed part (a set field's result and what an alert over it
// evaluates; none of it for a group's snapshot, per known-but-quiet group or
// per event), a close that raises no alert and holds no set field allocates
// nothing — not for the key order, the clustering or the closed-window list,
// all kept from close to close (the outlier shape's close allocated 11 while
// the clustering index and the key sort were made afresh at each close) —
// and once a window has closed, opening the groups of the next one allocates
// nothing: they are the closed window's, handed back.
func TestStatefulFoldAllocsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full runs")
	}
	const (
		groups              = 200
		eventsPerWindow     = 2000
		closeAllocsPerGroup = 3
		closeAllocsFixed    = 64
		// sliceLogCap is the engine's bound on a slice log: the hit that
		// reaches it folds the log mid-slice.
		sliceLogCap = 4096
	)
	for _, sh := range foldShapes {
		t.Run(sh.name, func(t *testing.T) {
			eng := New()
			if _, err := eng.Register(sh.name, sh.src); err != nil {
				t.Fatal(err)
			}
			window := func(w int) []*Event { return sh.window(w, eventsPerWindow, groups) }
			// Windows 0–3 warm the group runtimes, histories and (for the
			// invariant shape) finish training.
			for w := 0; w < 4; w++ {
				for _, ev := range window(w) {
					eng.Process(ev)
				}
			}
			open := window(4)
			for _, ev := range open {
				eng.Process(ev)
			}
			// A stats read seals the slice log: every group of window 4 now
			// exists.
			if _, ok := eng.QueryStats(sh.name); !ok {
				t.Fatal("query stats missing")
			}
			fold := testing.AllocsPerRun(5, func() {
				for _, ev := range open {
					eng.Process(ev)
				}
			})
			if st, _ := eng.QueryStats(sh.name); st.PatternHits != 10*eventsPerWindow+eventsPerWindow || st.LateHits != 0 {
				t.Fatalf("stats %+v: the measured events did not all fold", st)
			}
			perEvent := fold / eventsPerWindow
			t.Logf("fold: %.4f allocs/event", perEvent)
			if perEvent != 0 {
				t.Errorf("folding into existing groups allocates %.4f/event, gate is 0", perEvent)
			}

			// The first event of window 5 closes window 4, and the first
			// events of windows 6 and 7 below close windows 5 and 6. Each
			// close is held to the budget; a quiet close — no alert raised,
			// no set field, so nothing handed out or built — is held to 0
			// by the least of the three, so that an object the runtime
			// allocates for itself during one (a GC worker's) does not fail
			// the gate.
			budget := uint64(closeAllocsPerGroup*groups + closeAllocsFixed)
			quiet := !strings.Contains(sh.src, ":= set(")
			leastClose := uint64(math.MaxUint64)
			var before, after runtime.MemStats
			closeWith := func(next *Event) {
				runtime.ReadMemStats(&before)
				alerts := eng.Process(next)
				runtime.ReadMemStats(&after)
				closed := after.Mallocs - before.Mallocs
				t.Logf("close: %d allocs for %d groups, %d alerts (budget %d)", closed, groups, len(alerts), budget)
				if closed > budget {
					t.Errorf("closing a %d-group window allocates %d, gate is %d·groups + %d = %d",
						groups, closed, closeAllocsPerGroup, closeAllocsFixed, budget)
				}
				quiet = quiet && len(alerts) == 0
				leastClose = min(leastClose, closed)
			}
			closeWith(window(5)[0])
			if st, _ := eng.QueryStats(sh.name); st.WindowsClosed != 5 {
				t.Fatalf("windows closed = %d, want 5", st.WindowsClosed)
			}

			// Then each of windows 5–7 opens its groups: its first
			// sliceLogCap hits are logged (the first closes the window
			// before), and the one that reaches the cap folds them all into
			// groups the closed window handed back. The least of the three
			// counts is held to 0, so an object the runtime allocates for
			// itself during one of them (a GC worker's) does not fail the gate.
			opened := uint64(math.MaxUint64)
			for w := 5; w < 8; w++ {
				evs := sh.window(w, sliceLogCap+1, groups)
				if w > 5 {
					closeWith(evs[0])
				}
				runtime.ReadMemStats(&before)
				for _, ev := range evs[1:] {
					eng.Process(ev)
				}
				runtime.ReadMemStats(&after)
				opened = min(opened, after.Mallocs-before.Mallocs)
			}
			t.Logf("open: %d allocs for %d groups", opened, groups)
			if opened != 0 {
				t.Errorf("opening %d groups in a window after a close allocates %d, gate is 0", groups, opened)
			}
			if st, _ := eng.QueryStats(sh.name); st.PatternHits != 11*eventsPerWindow+3*(sliceLogCap+1) || st.WindowsClosed != 7 {
				t.Fatalf("stats %+v: windows 5–7 did not all fold", st)
			}
			if quiet && leastClose != 0 {
				t.Errorf("a quiet close of %d groups allocates %d at least, gate is 0", groups, leastClose)
			}
			if errs := eng.Errors(); len(errs) != 0 {
				t.Fatalf("runtime reported errors: %v", errs)
			}
		})
	}
}

// TestWindowCloseAllocsGate holds a window close to allocating for alerts
// only, never for evaluation: over 2 000 groups, a quiet alert that reads an
// entity binding allocates no more per group than one that reads only window
// state, and a firing group adds the alert's own two allocations (the Alert,
// its Values) — the compiled programs read the snapshot's slots where they
// lie. Each group's snapshot is written into its history's own ring slot, so
// a quiet close allocates 0.001 per group (the close's fixed part) and a
// firing one 2.01; while every close made a snapshot and its fields they
// were 2.00 and 4.01. internal/engine's BenchmarkWindowClose times the same
// three shapes.
func TestWindowCloseAllocsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full runs")
	}
	const groups = 2000
	perGroup := map[string]float64{}
	for _, c := range []struct {
		name, alert string
		alerts      int
	}{
		{"state-only-quiet", `ss.amt > 1000000000000`, 0},
		{"binding-quiet", `p.exe_name == "never.exe" && ss.amt > 1000000000000`, 0},
		{"firing", `ss.amt > 0`, groups},
	} {
		sh := foldShape{c.name, `proc p write ip i as e #time(10 s)
state ss { amt := sum(e.amount) } group by p
alert ` + c.alert + `
return p, i.dstip, ss[0].amt`, OpWrite, func(int) Entity { return NetConn("10.0.0.2", 1433, "10.1.0.9", 443) }}
		eng := New()
		if _, err := eng.Register(sh.name, sh.src); err != nil {
			t.Fatal(err)
		}
		// Windows 0 and 1 create the group runtimes and fill the histories;
		// window 2 is the one whose close is measured.
		for w := 0; w < 3; w++ {
			for _, ev := range sh.window(w, groups, groups) {
				eng.Process(ev)
			}
		}
		// A stats read seals the slice log: the fold of window 2 is done
		// before the measurement, which is of its close alone.
		if _, ok := eng.QueryStats(sh.name); !ok {
			t.Fatal("query stats missing")
		}
		next := sh.window(3, 1, groups)[0]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		alerts := eng.Process(next)
		runtime.ReadMemStats(&after)
		if len(alerts) != c.alerts {
			t.Fatalf("%s: closing the window raised %d alerts, want %d", c.name, len(alerts), c.alerts)
		}
		if errs := eng.Errors(); len(errs) != 0 {
			t.Fatalf("%s: runtime reported errors: %v", c.name, errs)
		}
		perGroup[c.name] = float64(after.Mallocs-before.Mallocs) / groups
		t.Logf("%s: %.3f allocs per group", c.name, perGroup[c.name])
	}
	const slack = 0.05 // the close's fixed part and the fan-out's slices, spread over the groups
	if perGroup["binding-quiet"] > perGroup["state-only-quiet"]+slack {
		t.Errorf("reading a binding costs %.3f allocs per group over a state-only alert's %.3f, gate is 0",
			perGroup["binding-quiet"]-perGroup["state-only-quiet"], perGroup["state-only-quiet"])
	}
	if extra := perGroup["firing"] - perGroup["state-only-quiet"]; extra > 2+slack {
		t.Errorf("a firing group allocates %.3f over a quiet one, gate is the alert's own 2", extra)
	}
}

// hotShapedStream is n events of a qs-hot-shaped stream: the four fleet-wide
// stateful shapes of foldShapes in turn, over 200 subject processes, 5 ms
// apart — so each of the 10–17 s windows closes a few times in a minute.
func hotShapedStream(n int) []*Event {
	shapes := foldShapes[:4]
	evs := make([]*Event, n)
	for k := range evs {
		sh := shapes[k%len(shapes)]
		evs[k] = &Event{
			Time:    demoStart.Add(time.Duration(k) * 5 * time.Millisecond),
			AgentID: "host-1",
			Subject: Process(fmt.Sprintf("svc-%d.exe", k%200), int32(100+k%200)),
			Op:      sh.op,
			Object:  sh.object(k),
			Amount:  float64(1000 + k%5000),
		}
	}
	return evs
}

// coldIngestBytes registers the four qs-hot shapes at eight window lengths each
// on a fresh engine, starts it, and reports the bytes the whole engine
// allocates per event while it ingests evs and drains them — what one
// benchmark rep pays, slab pool warm-up included.
func coldIngestBytes(t *testing.T, shards int, evs []*Event) float64 {
	t.Helper()
	opts := []Option{WithShards(shards), WithIngestQueue(64)}
	if shards == 0 {
		opts = nil
	}
	eng := New(opts...)
	for _, sh := range foldShapes[:4] {
		for w := 10; w < 18; w++ {
			src := strings.Replace(sh.src, "#time(10 s)", fmt.Sprintf("#time(%d s)", w), 1)
			if _, err := eng.Register(fmt.Sprintf("%s-%ds", sh.name, w), src); err != nil {
				t.Fatal(err)
			}
		}
	}
	if shards == 0 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, ev := range evs {
			eng.Process(ev)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(evs))
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < len(evs); i += 512 {
		if err := eng.SubmitBatch(evs[i:min(i+512, len(evs))]); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := eng.QueryStats("ts-avg-10s"); !ok { // a barrier behind every batch
		t.Fatal("query stats missing")
	}
	runtime.ReadMemStats(&after)
	if errs := eng.Errors(); len(errs) != 0 {
		t.Fatalf("runtime reported errors: %v", errs)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(evs))
}

// TestColdIngestBytesGate: every benchmark rep is a fresh engine, and the
// warm-state gates (TestIngestBytesPerEventGate) never see what a fresh one
// pays to fill its slab pool — up to a channel's worth of slabs per shard
// while the router runs ahead, each grown by append when it was made too
// small: ≈ 880, 1,390, 1,980 and 3,120 B/event over the serial engine's own
// fold and close allocations on this stream at 1, 2, 4 and 8 shards, before
// slabs carried one op per variant set and were made at the size they are
// flushed at (since: ≈ 140, 200–230, 350–380 and 630–700). What a started engine allocates beyond
// the serial engine on the first events of a qs-hot-shaped stream is held to
// 128 B/event plus 96 B/event per shard: each shard keeps its own copy of
// every by-group window, and the router may run a channel's worth of slabs
// ahead of it.
func TestColdIngestBytesGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full runs")
	}
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed: every pass makes slabs")
	}
	evs := hotShapedStream(20000)
	serial := coldIngestBytes(t, 0, evs)
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			started := coldIngestBytes(t, shards, evs)
			t.Logf("cold ingest: %.0f B/event started, %.0f B/event serial", started, serial)
			gate := float64(128 + 96*shards)
			if over := started - serial; over > gate {
				t.Fatalf("a fresh started engine allocates %.0f B/event over the serial engine, gate is %.0f B/event", over, gate)
			}
		})
	}
}

// registerPinned registers n rule queries, each pinned by a global agentid
// constraint to one of hosts hosts (query k to host k mod hosts) as the
// paper's demo queries are, over three pattern shapes.
func registerPinned(tb testing.TB, eng *Engine, n, hosts int) {
	tb.Helper()
	shapes := []string{
		`proc p["%cmd.exe"] start proc c as evt
return p, c`,
		`proc p write ip i[dstip="10.9.9.9"] as evt
return p, i`,
		`proc p read file f["%secret%"] as evt
return p, f`,
	}
	for k := range n {
		src := fmt.Sprintf("agentid = \"Host-%d\"\n%s", k%hosts, shapes[k%len(shapes)])
		if _, err := eng.Register(fmt.Sprintf("pinned-%d", k), src); err != nil {
			tb.Fatal(err)
		}
	}
}

// fleetStream is n events round-robin over the hosts in [from, to), the
// agentids spelt in mixed case: process starts, connections and file reads
// of which a few match registerPinned's shapes.
func fleetStream(n, from, to int) []*Event {
	evs := make([]*Event, n)
	for k := range evs {
		host := from + k%(to-from)
		ev := &Event{
			Time:    demoStart.Add(time.Duration(k) * time.Millisecond),
			AgentID: []string{"host-%d", "HOST-%d", "Host-%d", "hOsT-%d"}[k%4],
			Subject: Process([]string{"cmd.exe", "svchost.exe"}[k%2], int32(100+k%7)),
			Amount:  float64(k % 1000),
		}
		ev.AgentID = fmt.Sprintf(ev.AgentID, host)
		switch k % 3 {
		case 0:
			ev.Op, ev.Object = OpStart, Process("osql.exe", int32(200+k%7))
		case 1:
			ev.Op, ev.Object = OpWrite, NetConn("10.0.0.2", 1433, []string{"10.9.9.9", "10.1.1.1"}[k%2], 443)
		default:
			ev.Op, ev.Object = OpRead, File([]string{"/etc/secret.db", "/var/log/x"}[k%2])
		}
		evs[k] = ev
	}
	return evs
}

// TestPinnedDispatchAllocsGate: on the serial Process path an event from a
// host no query is pinned to costs one agentid lookup, folded on the stack,
// and no allocation — and runs no pinned master (PatternEvals stays put).
func TestPinnedDispatchAllocsGate(t *testing.T) {
	eng := New()
	registerPinned(t, eng, 16, 4) // hosts 0–3
	evs := fleetStream(2000, 4, 60)
	for _, ev := range evs {
		eng.Process(ev)
	}
	before := eng.Stats().PatternEvals
	allocs := testing.AllocsPerRun(5, func() {
		for _, ev := range evs {
			eng.Process(ev)
		}
	})
	perEvent := allocs / float64(len(evs))
	t.Logf("unpinned hosts: %.4f allocs/event", perEvent)
	if perEvent != 0 {
		t.Errorf("an event from an unpinned host allocates %.4f/event, gate is 0", perEvent)
	}
	if after := eng.Stats().PatternEvals; after != before {
		t.Errorf("PatternEvals rose %d → %d over events no master is pinned to", before, after)
	}
}

// BenchmarkPinnedDispatch times serial Process over a 60-host fleet stream
// with 1, 16 and 64 queries. In the rules and stateful families the queries
// are host-pinned: every event is looked up once in the agentid index and
// runs only the masters pinned to its host, so patevals/ev grows with the
// queries per host, not with the queries. The rules family registers
// registerPinned's rule queries, the stateful family as many `#time(10 s)`
// counts by process of one host's connections each (registerPinnedCounts): a
// variant set apiece, with a slice log. The ops family registers unpinned
// rule queries over distinct operation sets (registerOpSets), a group each:
// it shows what an event pays for the groups its operation cannot reach,
// which patevals/ev counts as if they had run. The stream spans six seconds,
// inside one window, so no window closes in the loop: ns/event is the cost
// of an event between two due points. Medians of ten runs of each side,
// alternated (2-core container, 200,000 iterations; single runs spread by
// about ±30%), ns/event at 1/16/64 queries: while serial Process visited
// every set at every event and resolved every slot, rules 154/367/929 and
// stateful 106/277/898 — the stateful family grew with the queries; since it
// visits a set only at its due point and resolves only the groups an event
// hit, rules 110/289/915 and stateful 107/140/320. Medians of six runs of
// each side, alternated, while a batch of one still went through the
// counting sort and swept every group → since it looks its agentid up
// directly and sweeps only the groups whose operation set holds its event's
// operation: rules 171/375/995 → 153/351/1007, stateful 136/171/338 →
// 109/148/269, ops 121/983/3648 → 106/461/1984. Medians of ten runs of each
// side, alternated, for the 392-byte event → the 368-byte hot-first one:
// rules 103/269/820 → 142/300/834, stateful 81/113/207 → 90/121/240, ops
// 92/415/1772 → 100/391/1524; a second series of eight at 1,000,000
// iterations read rules/queries=1 121 → 108 and stateful/queries=64
// 225 → 236, so both moves sit inside the runs' spread.
func BenchmarkPinnedDispatch(b *testing.B) {
	const hosts = 60
	for _, family := range []struct {
		name     string
		register func(testing.TB, *Engine, int, int)
	}{{"rules", registerPinned}, {"stateful", registerPinnedCounts}, {"ops", registerOpSets}} {
		for _, n := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("%s/queries=%d", family.name, n), func(b *testing.B) {
				eng := New()
				family.register(b, eng, n, hosts)
				evs := fleetStream(6000, 0, hosts)
				for _, ev := range evs {
					eng.Process(ev)
				}
				before := eng.Stats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Process(evs[i%len(evs)])
				}
				b.StopTimer()
				st := eng.Stats()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
				b.ReportMetric(float64(st.PatternEvals-before.PatternEvals)/float64(st.Events-before.Events), "patevals/ev")
			})
		}
	}
}

// registerOpSets registers n unpinned rule queries, query k over the k-th
// non-empty set of operations in order of size (the nine single operations,
// then the pairs, then the triples), so no two share a signature or a group.
// Their subject matches no process of fleetStream: an event whose operation
// is in a query's set fails at the subject, any other at the operation.
func registerOpSets(tb testing.TB, eng *Engine, n, _ int) {
	tb.Helper()
	ops := []string{"read", "write", "execute", "start", "end", "delete", "rename", "connect", "accept"}
	var sets []string
	for size := 1; len(sets) < n; size++ {
		for m := uint(1); m < 1<<len(ops); m++ {
			if bits.OnesCount(m) != size {
				continue
			}
			var set []string
			for i, op := range ops {
				if m&(1<<i) != 0 {
					set = append(set, op)
				}
			}
			sets = append(sets, strings.Join(set, " || "))
		}
	}
	for k := range n {
		src := fmt.Sprintf("proc p[\"%%ops.exe\"] %s file f as evt\nreturn p, f", sets[k])
		if _, err := eng.Register(fmt.Sprintf("ops-%d", k), src); err != nil {
			tb.Fatal(err)
		}
	}
}

// registerPinnedCounts registers n stateful queries, query k pinned to host
// k mod hosts: a `#time(10 s)` count of the host's connections by process.
func registerPinnedCounts(tb testing.TB, eng *Engine, n, hosts int) {
	tb.Helper()
	for k := range n {
		src := fmt.Sprintf("agentid = \"Host-%d\"\nproc p write ip i as evt #time(10 s)\nstate ss { n := count(evt) } group by p\nalert ss.n > 1000000\nreturn p, ss.n", k%hosts)
		if _, err := eng.Register(fmt.Sprintf("counts-%d", k), src); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkStatefulFold times the serial Process path folding hits into
// groups that already exist in an open window — key, group probe, the slice
// log, bindings, argument programs, aggregator Add, watermark advance — for
// each qs-hot shape, as a lone query and as a variant set of eight window
// lengths (10–17 s, as qs-hot keeps them), where a hit is logged once, each
// distinct argument program runs once on it, and every member folds it. Every event is one hit: ns/hit is the cost of a
// hit to the whole set. Window closes are not in the loop; BenchmarkDBSCAN
// covers the part of a close that grows with the window. Reusing closed
// windows' groups left the loop as it was: variants=8, medians of five
// alternated runs of 20 000 hits on 2 cores, ns/hit before → after: ts-avg
// 331 → 334, outlier-dst 319 → 302, inv-children 437 → 425, count-files
// 272 → 286, global-sum 244 → 261, abs-arg 336 → 332, mixed-fields
// 362 → 373 (inside the runs' spread), 0 allocs on both sides. The
// hot-first event layout (368 bytes, Amount beside Time) left it as it was
// too, since the loop's events stay in cache: medians of six alternated
// runs, ts-avg 296 → 309, outlier-dst 281 → 263, inv-children 385 → 394,
// count-files 232 → 253, global-sum 214 → 222, abs-arg 289 → 311,
// mixed-fields 393 → 358 (single runs spread up to ×2), 0 allocs on both
// sides.
func BenchmarkStatefulFold(b *testing.B) {
	for _, sh := range foldShapes {
		for _, variants := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/variants=%d", sh.name, variants), func(b *testing.B) {
				eng := New()
				for w := 10; w < 10+variants; w++ {
					src := strings.Replace(sh.src, "#time(10 s)", fmt.Sprintf("#time(%d s)", w), 1)
					if sh.name == "mixed-fields" && w%2 == 1 {
						// Members differ in top's argument: the set's table
						// holds two programs, and the even members read one.
						src = strings.Replace(src, "max(evt.amount)", "min(abs(evt.amount))", 1)
					}
					if _, err := eng.Register(fmt.Sprintf("%s-%ds", sh.name, w), src); err != nil {
						b.Fatal(err)
					}
				}
				events := sh.window(0, 2000, 200)
				for _, ev := range events {
					eng.Process(ev)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Process(events[i%len(events)])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/hit")
			})
		}
	}
}
