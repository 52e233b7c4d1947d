package saql

// Language conformance corpus: a battery of SAQL queries covering every
// construct the grammar supports, each of which must validate, compile, and
// classify to the expected anomaly model. This is the regression suite that
// pins the language surface.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"saql/internal/conformance"
	"saql/internal/engine"
)

var conformanceCorpus = conformance.Corpus

func TestConformanceCorpus(t *testing.T) {
	for _, c := range conformanceCorpus {
		t.Run(c.Name, func(t *testing.T) {
			if err := Validate(c.Src); err != nil {
				t.Fatalf("validate: %v", err)
			}
			q, err := compileQuery(c.Name, c.Src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if q.Kind.String() != c.Kind {
				t.Errorf("kind = %v, want %v", q.Kind, c.Kind)
			}
		})
	}
}

// TestHotSwapMatchesRestart is the lifecycle conformance check: a sharded
// engine whose queries are Registered, Paused/Resumed, and hot-swapped
// (Updated) mid-stream must emit exactly the same alerts as a fresh serial
// engine running the final query set over the same events — pause windows
// chosen over spans the paused query would not have matched, and updates
// performed with window-state carry before any window closes, so the
// equivalence is exact. It then verifies that Apply of the (now unchanged)
// final queryset reports zero changes and reuses the existing handles
// pointer-identically.
func TestHotSwapMatchesRestart(t *testing.T) {
	const procs, perProc = 120, 40
	events := concurrencyWorkload(procs, perProc)
	block := func(from, to int) []*Event { return events[from*perProc : to*perProc] }

	// The final query set: three placements (by-group, by-event, pinned)
	// plus two rules that only match late blocks of the stream, so
	// mid-stream Update and Register land before their matching events.
	// grouped-sum-2h is a second window length of grouped-sum: the two are one
	// variant set, and grouped-sum's carrying swap lands inside its slice.
	final := map[string]string{
		"grouped-sum": `proc p write ip i as e #time(1 h)
state ss { amt := sum(e.amount)
           n := count(e) } group by p
alert ss.amt > 1000000
return p, ss.amt, ss.n`,
		"grouped-sum-2h": `proc p write ip i as e #time(2 h)
state ss { amt := sum(e.amount)
           n := count(e) } group by p
alert ss.amt > 2000000
return p, ss.amt, ss.n`,
		"big-write": `proc p write ip i as e
alert e.amount > 1000000
return p, e.amount`,
		"global-volume": `proc p write ip i as e #time(1 h)
state ss { total := sum(e.amount) }
alert ss.total > 5000000
return ss.total`,
		"late-rule": `proc p["worker-0119.exe"] write ip i as e
alert e.amount > 0
return p, e.amount`,
		"late-reg": `proc p["worker-0118.exe"] write ip i as e
alert e.amount > 0
return p, e.amount`,
	}

	// Serial baseline: the final set over the whole stream.
	serial := New()
	for name, src := range final {
		if _, err := serial.Register(name, src); err != nil {
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

	// Sharded engine: start from looser variants, then converge onto the
	// final set mid-stream through the handle API.
	replace := func(name, old, new string) string {
		src := final[name]
		if !strings.Contains(src, old) {
			t.Fatalf("%s: %q not in source", name, old)
		}
		return strings.Replace(src, old, new, 1)
	}
	eng := New(WithShards(4))
	handles := map[string]*QueryHandle{}
	register := func(name, src string) *QueryHandle {
		t.Helper()
		h, err := eng.Register(name, src)
		if err != nil {
			t.Fatalf("Register(%s): %v", name, err)
		}
		handles[name] = h
		return h
	}
	register("grouped-sum", replace("grouped-sum", "> 1000000", "> 5000000"))
	register("grouped-sum-2h", final["grouped-sum-2h"])
	register("big-write", final["big-write"])
	register("global-volume", replace("global-volume", "> 5000000", "> 5000000000"))
	register("late-rule", strings.Replace(final["late-rule"], "worker-0119.exe", "worker-none.exe", 1))
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscribe(4096, Block)
	var got []*Alert
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C {
			got = append(got, a)
		}
	}()
	submit := func(evs []*Event) {
		t.Helper()
		if err := eng.SubmitBatch(evs); err != nil {
			t.Fatal(err)
		}
	}

	// Blocks 1..6 carry no amounts above the big-write threshold (only
	// p%7==0 groups do), so pausing it across exactly that span skips
	// events it would never have matched.
	submit(block(0, 1))
	if err := handles["big-write"].Pause(); err != nil {
		t.Fatal(err)
	}
	submit(block(1, 7))
	if err := handles["big-write"].Resume(); err != nil {
		t.Fatal(err)
	}
	submit(block(7, 60))

	// Converge on the final set at the stream's midpoint: window-state
	// carry for the stateful queries (their 1h windows are still open, so
	// the final thresholds judge the complete sums), a plain swap for the
	// rule, and a late registration — both of which only match events in
	// blocks 118/119, still ahead of the stream.
	if err := handles["grouped-sum"].Update(final["grouped-sum"], CarryWindowState()); err != nil {
		t.Fatal(err)
	}
	if err := handles["global-volume"].Update(final["global-volume"], CarryWindowState()); err != nil {
		t.Fatal(err)
	}
	if err := handles["late-rule"].Update(final["late-rule"]); err != nil {
		t.Fatal(err)
	}
	register("late-reg", final["late-reg"])
	submit(block(60, procs))

	// The registry now equals the final set: Apply must be a no-op that
	// reuses every handle pointer-identically.
	set := NewQuerySet()
	names := make([]string, 0, len(final))
	for name := range final {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := set.Add(name, final[name]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := eng.Apply(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty() || len(rep.Unchanged) != len(final) {
		t.Errorf("Apply of unchanged set: %s, want no changes and %d unchanged", rep, len(final))
	}
	for name, h := range handles {
		if cur, ok := eng.Query(name); !ok || cur != h {
			t.Errorf("Apply replaced handle %q", name)
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
		t.Errorf("alert count: lifecycle engine=%d, restarted serial=%d", len(gotIDs), len(wantIDs))
	}
	for i := 0; i < len(wantIDs) && i < len(gotIDs); i++ {
		if wantIDs[i] != gotIDs[i] {
			t.Fatalf("alert sets diverge at #%d:\n  lifecycle: %s\n  restart:   %s", i, gotIDs[i], wantIDs[i])
		}
	}
}

// TestSharedEvaluationPatternEvals pins the tentpole's acceptance
// criterion: with the router pre-evaluating pattern hits once per event,
// an 8-shard engine performs exactly the serial number of pattern
// evaluations (before the shared-evaluation stage it was ~8×), while still
// raising the same alerts.
func TestSharedEvaluationPatternEvals(t *testing.T) {
	events := concurrencyWorkload(60, 20)
	queries := make([]struct{ name, src string }, 16)
	for i := range queries {
		queries[i].name = fmt.Sprintf("v%d", i)
		queries[i].src = fmt.Sprintf(`proc p write ip i as e #time(1 h)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > %d
return p, ss.amt`, 1000000+i*1000)
	}
	register := func(eng *Engine) {
		t.Helper()
		for _, q := range queries {
			if _, err := eng.Register(q.name, q.src); err != nil {
				t.Fatal(err)
			}
		}
	}

	serial := New()
	register(serial)
	for _, ev := range events {
		serial.Process(ev)
	}
	serial.Flush()
	ss := serial.Stats()

	sharded := New(WithShards(8), WithIngestQueue(64))
	register(sharded)
	if err := sharded.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sharded.SubmitBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Close(); err != nil {
		t.Fatal(err)
	}
	hs := sharded.Stats()

	if hs.PatternEvals != ss.PatternEvals {
		t.Errorf("8-shard PatternEvals = %d, serial = %d (want identical: hits are pre-evaluated once)",
			hs.PatternEvals, ss.PatternEvals)
	}
	if float64(hs.PatternEvals) > 1.2*float64(ss.PatternEvals) {
		t.Errorf("acceptance: 8-shard PatternEvals %d exceeds 1.2x serial %d", hs.PatternEvals, ss.PatternEvals)
	}
	if hs.Alerts != ss.Alerts {
		t.Errorf("alerts: sharded=%d serial=%d", hs.Alerts, ss.Alerts)
	}
	if ss.Alerts == 0 {
		t.Error("workload produced no alerts")
	}
}

// TestSharedKeyEvaluation pins group-key sharing the way
// TestSharedEvaluationPatternEvals pins pattern sharing, with exact counters:
// on a set shaped like the benchmark's qs-hot — four stateful shapes, each at
// eight window lengths — plus a fifth shape whose key fails for one process
// in three, one key is evaluated per event per hit pattern per *key class*
// (queries whose group-by compiles to the same programs), in the evaluating
// scheduler's resolve step, serial and started alike, and a key that fails is
// evaluated once more by the fold that reports it; so KeyEvals is the same at
// every shard count, serial included, and does not grow with the number of
// variants per shape. Three of the four shapes key by their subject process
// and are one class; the outlier shape keys by destination address. Each key
// that evaluates is then resolved to a group id by one directory probe
// (GroupProbes): on the serial path exactly one per such key, on a started
// engine one on each shard that folds it — the key's owner for a by-group
// class, each home shard of a pinned one — never one per query. A failing key
// is probed nowhere and reported once per member.
func TestSharedKeyEvaluation(t *testing.T) {
	shapes := foldShapes[:4] // ts-avg, outlier-dst, inv-children, count-files
	// failKey divides by the subject's pid modulo 3: a delete by one process
	// in three fails to key.
	const failKey = `proc p delete file f as evt #time(10 s)
state ss { n := count(evt) } group by p, 1000 / (p.pid % 3)
alert ss.n > 1000000
return p, ss.n`
	const n = 6000 // a minute of stream: several closes of every 10–17 s window
	events := make([]*Event, n)
	var want, failed int64 // keys that evaluate; keys that fail
	for k := range events {
		sh := shapes[k%len(shapes)]
		ev := &Event{
			Time:    demoStart.Add(time.Duration(k) * 10 * time.Millisecond),
			AgentID: "host-1",
			Subject: Process(fmt.Sprintf("svc-%d.exe", k%20), int32(100+k%20)),
			Op:      sh.op,
			Object:  sh.object(k),
			Amount:  float64(500000 + 100*k), // rising: ts-avg's moving average alerts
		}
		switch {
		case k%10 == 9: // a delete hits the failing-key shape alone
			p := (k / 10) % 20
			ev.Subject = Process(fmt.Sprintf("svc-%d.exe", p), int32(100+p))
			ev.Op, ev.Object = OpDelete, File(fmt.Sprintf("/tmp/%d.tmp", k%7))
			if (100+p)%3 == 0 {
				failed++
			} else {
				want++
			}
		case sh.name == "ts-avg":
			want += 2 // a write to an ip hits ts-avg (subject key) and outlier-dst (destination key)
		case sh.name == "outlier-dst":
			ev.Op = OpRead // a read from an ip hits outlier-dst alone
			want++
		default:
			want++ // start proc: inv-children; read file: count-files — the subject class, once
		}
		events[k] = ev
	}
	type result struct {
		Stats
		errors int64
	}
	run := func(shards, variants int) result {
		t.Helper()
		var eng *Engine
		if shards == 0 {
			eng = New()
		} else {
			eng = New(WithShards(shards), WithIngestQueue(64))
		}
		for _, sh := range append(slices.Clone(shapes), foldShape{name: "fail-key", src: failKey}) {
			for w := 10; w < 10+variants; w++ {
				src := strings.Replace(sh.src, "#time(10 s)", fmt.Sprintf("#time(%d s)", w), 1)
				if _, err := eng.Register(fmt.Sprintf("%s-%ds", sh.name, w), src); err != nil {
					t.Fatal(err)
				}
			}
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
			for i := 0; i < len(events); i += 300 {
				if err := eng.SubmitBatch(events[i:min(i+300, len(events))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return result{eng.Stats(), eng.ErrorCount()}
	}
	serial1, serial8 := run(0, 1), run(0, 8)
	for variants, r := range map[int]result{1: serial1, 8: serial8} {
		if r.KeyEvals != want+2*failed || r.GroupProbes != want {
			t.Errorf("serial, variants=%d: KeyEvals %d, GroupProbes %d; want %d and %d (one key per event per hit pattern per key class, a failing one twice; one probe per key that evaluates)",
				variants, r.KeyEvals, r.GroupProbes, want+2*failed, want)
		}
		if r.errors != int64(variants)*failed {
			t.Errorf("serial, variants=%d: %d errors, want %d (each failing key reported once per member)", variants, r.errors, int64(variants)*failed)
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, variants := range []int{1, 8} {
			r, ser := run(shards, variants), map[int]result{1: serial1, 8: serial8}[variants]
			if r.KeyEvals != ser.KeyEvals {
				t.Errorf("shards=%d variants=%d: KeyEvals = %d, serial %d (one per event per hit pattern per key class, a failing one twice)",
					shards, variants, r.KeyEvals, ser.KeyEvals)
			}
			// Every key that evaluates is probed on the shards that fold it: at
			// least once, at most once per shard, exactly once on one shard.
			if r.GroupProbes < want || r.GroupProbes > int64(shards)*want || (shards == 1 && r.GroupProbes != ser.GroupProbes) {
				t.Errorf("shards=%d variants=%d: GroupProbes = %d, want between %d and %d (at most one per event per hit pattern per key class per shard)",
					shards, variants, r.GroupProbes, want, int64(shards)*want)
			}
			if r.Alerts != ser.Alerts || r.PatternEvals != ser.PatternEvals || r.errors != ser.errors {
				t.Errorf("shards=%d variants=%d: alerts %d, pattern evals %d, errors %d; serial %d, %d, %d",
					shards, variants, r.Alerts, r.PatternEvals, r.errors, ser.Alerts, ser.PatternEvals, ser.errors)
			}
		}
	}
	if serial8.Alerts == 0 || failed == 0 {
		t.Errorf("the workload exercised too little: %d alerts, %d failing keys", serial8.Alerts, failed)
	}
}

// TestWidestQueryMatchesSerial runs a query with as many event patterns as the
// language allows — 63, one bit each of the pattern set that carries a hit
// from the evaluator through the router's ops to the matcher — through 1 and
// 4 shards: the conjunction completes exactly when the event for the last
// pattern (bit 62) arrives, as on the serial path. One pattern more is a
// compile error (internal/sema TestMaxPatterns).
func TestWidestQueryMatchesSerial(t *testing.T) {
	const n = 63
	var src strings.Builder
	events := make([]*Event, n)
	for i := range events {
		fmt.Fprintf(&src, "proc p%d[\"step-%d.exe\"] read file f%d as e%d\n", i, i, i, i)
		events[i] = &Event{
			Time:    demoStart.Add(time.Duration(i) * time.Second),
			AgentID: "host-1",
			Subject: Process(fmt.Sprintf("step-%d.exe", i), int32(100+i)),
			Op:      OpRead,
			Object:  File(fmt.Sprintf("/data/%d", i)),
		}
	}
	// In time order, or the matcher would track every subset of 63 patterns.
	src.WriteString("with e0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&src, " -> e%d", i)
	}
	src.WriteString("\nreturn p0, p62")
	if _, err := New().Register("too-wide", "proc q start proc c as extra\n"+src.String()); err == nil || !strings.Contains(err.Error(), "at most 63") {
		t.Fatalf("64 patterns: Register error %v, want the pattern bound", err)
	}
	for _, shards := range []int{0, 1, 4} {
		alerts, collect := collectAlerts()
		opts := []Option{collect}
		if shards > 0 {
			opts = append(opts, WithShards(shards))
		}
		eng := New(opts...)
		if _, err := eng.Register("widest", src.String()); err != nil {
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
		if st, _ := eng.QueryStats("widest"); len(*alerts) != 1 || st.PatternHits != n || st.Matches != 1 {
			t.Errorf("shards=%d: %d alerts, stats %+v; want 1 alert from %d pattern hits", shards, len(*alerts), st, n)
		}
	}
}

// TestSingleShardMatchesMultiShard pins the shard count out of the results:
// a 1-shard engine runs the same router — shared evaluation, ownership
// routing, routed fold — as an 8-shard one, so it must report exactly the
// PatternEvals and alerts of the 8-shard engine, and of the serial
// reference, over the same workload.
func TestSingleShardMatchesMultiShard(t *testing.T) {
	events := concurrencyWorkload(60, 20)
	queries := make([]struct{ name, src string }, 12)
	for i := range queries {
		queries[i].name = fmt.Sprintf("v%d", i)
		queries[i].src = fmt.Sprintf(`proc p write ip i as e #time(1 h)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > %d
return p, ss.amt`, 1000000+i*1000)
	}
	run := func(shards int) Stats {
		t.Helper()
		var eng *Engine
		if shards == 0 {
			eng = New()
		} else {
			eng = New(WithShards(shards), WithIngestQueue(64))
		}
		for _, q := range queries {
			if _, err := eng.Register(q.name, q.src); err != nil {
				t.Fatal(err)
			}
		}
		if shards == 0 {
			for _, ev := range events {
				eng.Process(ev)
			}
			eng.Flush()
			return eng.Stats()
		}
		if err := eng.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := eng.SubmitBatch(events); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		return eng.Stats()
	}

	serial := run(0)
	one := run(1)
	eight := run(8)

	if one.PatternEvals != eight.PatternEvals {
		t.Errorf("PatternEvals: 1-shard=%d 8-shard=%d (want identical)", one.PatternEvals, eight.PatternEvals)
	}
	if one.PatternEvals != serial.PatternEvals {
		t.Errorf("PatternEvals: 1-shard=%d serial=%d (want identical)", one.PatternEvals, serial.PatternEvals)
	}
	if one.Alerts != eight.Alerts {
		t.Errorf("Alerts: 1-shard=%d 8-shard=%d (want identical)", one.Alerts, eight.Alerts)
	}
	if one.Alerts != serial.Alerts {
		t.Errorf("Alerts: 1-shard=%d serial=%d (want identical)", one.Alerts, serial.Alerts)
	}
	if serial.Alerts == 0 {
		t.Error("workload produced no alerts")
	}
}

// Every corpus query must also execute without runtime errors against the
// demo stream (smoke execution: no panics, no evaluation errors other than
// intentional ones).
func TestConformanceCorpusExecutes(t *testing.T) {
	events, _ := buildDemoStream(t, 5*time.Minute, 2*time.Minute)
	for _, c := range conformanceCorpus {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			q, err := compileQuery(c.Name, c.Src)
			if err != nil {
				t.Fatal(err)
			}
			reporter := engine.NewErrorReporter(16, nil)
			s := soloScheduler(t, q, reporter)
			for _, ev := range events {
				s.Process(ev)
			}
			s.Flush()
			if n := reporter.Total(); n > 0 {
				t.Errorf("%d runtime evaluation errors", n)
			}
		})
	}
}
