package saql

// Language conformance corpus: a battery of SAQL queries covering every
// construct the grammar supports, each of which must validate, compile, and
// classify to the expected anomaly model. This is the regression suite that
// pins the language surface.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"saql/internal/conformance"
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

// TestLifecycleHammerMatchesSerial is the conformance hammer for the
// shared-evaluation router: one deterministic random script of Pause /
// Resume / Update operations (thresholds tweaked, carry and fresh-state
// swaps mixed) interleaved with event blocks, applied identically to a
// never-started serial engine and to sharded engines at 1, 2, 8, and 96
// shards. Every configuration must emit exactly the same alerts: control
// operations ride the ingest queue in total order, so they land at the
// same stream point everywhere, and the router's pre-evaluated hit sets
// must stay consistent across every layout change the script provokes.
// Each query's events-offered counter must agree too, at every shard count:
// a paused span counts for nothing, a fresh-state Update restarts it and a
// state-carrying one keeps it.
//
// Sharded engines receive each block in randomly sized sub-batches (from
// single events up to a few dozen), so the partitioned router's per-shard
// ring buffers sit in assorted partial-fill states whenever a control
// operation forces a flush. The script and the batch chopping derive from
// one seed, logged on every run; set SAQL_CONFORMANCE_SEED to reproduce.
func TestLifecycleHammerMatchesSerial(t *testing.T) {
	seed := int64(7)
	if s := os.Getenv("SAQL_CONFORMANCE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SAQL_CONFORMANCE_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("lifecycle seed = %d (set SAQL_CONFORMANCE_SEED=%d to reproduce)", seed, seed)
	const procs, perProc, blocks = 96, 25, 24
	events := concurrencyWorkload(procs, perProc)

	names := []string{"grouped-sum", "big-write", "global-volume"}
	variant := func(name string, k int) string {
		switch name {
		case "grouped-sum":
			return fmt.Sprintf(`proc p write ip i as e #time(1 h)
state ss { amt := sum(e.amount)
           n := count(e) } group by p
alert ss.amt > %d
return p, ss.amt, ss.n`, 1000000+k*1000)
		case "big-write":
			return fmt.Sprintf(`proc p write ip i as e
alert e.amount > %d
return p, e.amount`, 1000000+k*500)
		case "global-volume":
			return fmt.Sprintf(`proc p write ip i as e #time(1 h)
state ss { total := sum(e.amount) }
alert ss.total > %d
return ss.total`, 5000000+k*10000)
		}
		t.Fatalf("unknown query %q", name)
		return ""
	}

	// Generate the op script once; every engine replays it verbatim.
	type step struct {
		op    string // submit | pause | resume | update
		block int
		name  string
		src   string
		carry bool
	}
	rng := rand.New(rand.NewSource(seed))
	var script []step
	paused := map[string]bool{}
	version := map[string]int{}
	for b := 0; b < blocks; b++ {
		script = append(script, step{op: "submit", block: b})
		for i := 0; i < 1+rng.Intn(2); i++ {
			name := names[rng.Intn(len(names))]
			switch rng.Intn(3) {
			case 0:
				if paused[name] {
					script = append(script, step{op: "resume", name: name})
					paused[name] = false
				} else {
					script = append(script, step{op: "pause", name: name})
					paused[name] = true
				}
			case 1:
				version[name]++
				// Carry only where the state layer allows it (stateful
				// queries); the rule query always swaps fresh.
				carry := name != "big-write" && rng.Intn(2) == 0
				script = append(script, step{op: "update", name: name, src: variant(name, version[name]), carry: carry})
			case 2:
				// No-op: vary the spacing between control operations.
			}
		}
	}

	run := func(t *testing.T, shards int) ([]string, map[string]int64) {
		t.Helper()
		// Sub-batch chopping is deterministic per configuration; it changes
		// envelope boundaries (and so ring-buffer fill at each flush), never
		// the event order, so alert equality must be unaffected.
		chop := rand.New(rand.NewSource(seed + int64(shards)*1000003))
		var eng *Engine
		if shards == 0 {
			eng = New()
		} else {
			eng = New(WithShards(shards), WithIngestQueue(64))
		}
		handles := map[string]*QueryHandle{}
		for _, name := range names {
			h, err := eng.Register(name, variant(name, 0))
			if err != nil {
				t.Fatalf("Register(%s): %v", name, err)
			}
			handles[name] = h
		}
		var got []*Alert
		var consumer sync.WaitGroup
		if shards > 0 {
			if err := eng.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			sub := eng.Subscribe(8192, Block)
			consumer.Add(1)
			go func() {
				defer consumer.Done()
				for a := range sub.C {
					got = append(got, a)
				}
			}()
		}
		blockSize := len(events) / blocks
		for _, st := range script {
			switch st.op {
			case "submit":
				from, to := st.block*blockSize, (st.block+1)*blockSize
				if st.block == blocks-1 {
					to = len(events)
				}
				if shards == 0 {
					for _, ev := range events[from:to] {
						got = append(got, eng.Process(ev)...)
					}
				} else {
					for lo := from; lo < to; {
						hi := lo + 1 + chop.Intn(48)
						if hi > to {
							hi = to
						}
						if err := eng.SubmitBatch(events[lo:hi]); err != nil {
							t.Fatal(err)
						}
						lo = hi
					}
				}
			case "pause":
				if err := handles[st.name].Pause(); err != nil {
					t.Fatalf("pause %s: %v", st.name, err)
				}
			case "resume":
				if err := handles[st.name].Resume(); err != nil {
					t.Fatalf("resume %s: %v", st.name, err)
				}
			case "update":
				var opts []UpdateOption
				if st.carry {
					opts = append(opts, CarryWindowState())
				}
				if err := handles[st.name].Update(st.src, opts...); err != nil {
					t.Fatalf("update %s: %v", st.name, err)
				}
			}
		}
		offered := map[string]int64{}
		for _, name := range names {
			qs, ok := eng.QueryStats(name)
			if !ok {
				t.Fatalf("QueryStats(%s) missing", name)
			}
			offered[name] = qs.Events
		}
		if shards == 0 {
			got = append(got, eng.Flush()...)
		} else {
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			consumer.Wait()
		}
		ids := make([]string, 0, len(got))
		for _, a := range got {
			ids = append(ids, alertIdentity(a))
		}
		sort.Strings(ids)
		return ids, offered
	}

	want, wantOffered := run(t, 0)
	if len(want) == 0 {
		t.Fatal("serial hammer run produced no alerts")
	}
	for _, shards := range []int{1, 2, 8, 96} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got, offered := run(t, shards)
			for _, name := range names {
				if offered[name] != wantOffered[name] {
					t.Errorf("%s: events offered: sharded=%d serial=%d", name, offered[name], wantOffered[name])
				}
			}
			if len(got) != len(want) {
				t.Errorf("alert count: sharded=%d serial=%d", len(got), len(want))
			}
			for i := 0; i < len(want) && i < len(got); i++ {
				if got[i] != want[i] {
					t.Fatalf("alert sets diverge at #%d:\n  sharded: %s\n  serial:  %s", i, got[i], want[i])
				}
			}
		})
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
// eight window lengths — one key is evaluated per event per hit pattern per
// *key class* (queries whose group-by compiles to the same programs), in the
// serial fold and in a started engine's router alike, so KeyEvals is the same
// at every shard count, serial included, and does not grow with the number of
// variants per shape. Three of the four shapes key by their subject process
// and are one class; the outlier shape keys by destination address. Each key
// is then resolved to a group id by one directory probe (GroupProbes): on the
// serial path exactly one per key evaluated, on a started engine one on each
// shard that folds it — the key's owner for a by-group class, each home shard
// of a pinned one — never one per query.
func TestSharedKeyEvaluation(t *testing.T) {
	shapes := foldShapes[:4] // ts-avg, outlier-dst, inv-children, count-files
	const n = 6000           // a minute of stream: several closes of every 10–17 s window
	events := make([]*Event, n)
	var want int64
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
		switch sh.name {
		case "ts-avg":
			want += 2 // a write to an ip hits ts-avg (subject key) and outlier-dst (destination key)
		case "outlier-dst":
			ev.Op = OpRead // a read from an ip hits outlier-dst alone
			want++
		default:
			want++ // start proc: inv-children; read file: count-files — the subject class, once
		}
		events[k] = ev
	}
	run := func(shards, variants int) Stats {
		t.Helper()
		var eng *Engine
		if shards == 0 {
			eng = New()
		} else {
			eng = New(WithShards(shards), WithIngestQueue(64))
		}
		for _, sh := range shapes {
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
		if errs := eng.Errors(); len(errs) != 0 {
			t.Fatalf("runtime reported errors: %v", errs)
		}
		return eng.Stats()
	}
	serial1, serial8 := run(0, 1), run(0, 8)
	for variants, st := range map[int]Stats{1: serial1, 8: serial8} {
		if st.KeyEvals != want || st.GroupProbes != want {
			t.Errorf("serial, variants=%d: KeyEvals %d, GroupProbes %d; want %d of each (one key and one probe per event per hit pattern per key class)",
				variants, st.KeyEvals, st.GroupProbes, want)
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, variants := range []int{1, 8} {
			st := run(shards, variants)
			if st.KeyEvals != want {
				t.Errorf("shards=%d variants=%d: KeyEvals = %d, want %d (one per event per hit pattern per key class)",
					shards, variants, st.KeyEvals, want)
			}
			// Every key is probed on the shards that fold it: at least once, at
			// most once per shard, exactly once on one shard.
			if st.GroupProbes < want || st.GroupProbes > int64(shards)*want || (shards == 1 && st.GroupProbes != want) {
				t.Errorf("shards=%d variants=%d: GroupProbes = %d, want between %d and %d (at most one per event per hit pattern per key class per shard)",
					shards, variants, st.GroupProbes, want, int64(shards)*want)
			}
			if ser := map[int]Stats{1: serial1, 8: serial8}[variants]; st.Alerts != ser.Alerts || st.PatternEvals != ser.PatternEvals {
				t.Errorf("shards=%d variants=%d: alerts %d, pattern evals %d; serial %d, %d",
					shards, variants, st.Alerts, st.PatternEvals, ser.Alerts, ser.PatternEvals)
			}
		}
	}
	if serial8.Alerts == 0 {
		t.Error("workload produced no alerts")
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

// TestCheckpointRestoreMatchesUninterrupted is the recovery conformance
// hammer: one randomized script of event blocks interleaved with Pause /
// Resume / Update operations runs against a durable engine that is
// checkpointed at a random block boundary and killed at a random later
// point; the engine is then restored from the snapshot (onto the same shard
// count) and the script re-driven from the checkpoint position. The
// pre-checkpoint alerts plus the restored engine's output must equal,
// alert for alert, a serial engine that ran the whole script uninterrupted
// — no lost, duplicated, or reordered detections — at 1, 2, and 8 shards,
// and every query's events-offered counter must read what the uninterrupted
// run's does: a restored engine resumes counting, it does not restart.
//
// The script, checkpoint block, and kill block derive from one seed, logged
// on every run; set SAQL_CONFORMANCE_SEED to reproduce a failure.
func TestCheckpointRestoreMatchesUninterrupted(t *testing.T) {
	seed := time.Now().UnixNano()
	if s := os.Getenv("SAQL_CONFORMANCE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SAQL_CONFORMANCE_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("conformance seed = %d (set SAQL_CONFORMANCE_SEED=%d to reproduce)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	const procs, perProc, blocks = 96, 25, 24
	events := concurrencyWorkload(procs, perProc)
	blockSize := len(events) / blocks

	// Six queries covering every stateful layer a checkpoint must carry:
	// open-window aggregators across all three placements, history rings,
	// invariant training, and window clustering — plus a variant set of three
	// sub-second window lengths, whose slice logs hold hits wherever a barrier
	// lands. Update variants tune only thresholds, so carry stays legal where
	// the script requests it.
	names := []string{"grouped-sum", "big-write", "global-volume", "ts-history", "inv-dsts", "outlier-amt", "win-300", "win-400", "win-700"}
	variant := func(name string, k int) string {
		switch name {
		case "win-300", "win-400", "win-700":
			return fmt.Sprintf(`proc p write ip i as e #time(%s ms)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > %d
return p, ss.amt`, strings.TrimPrefix(name, "win-"), 2000+k*100)
		case "grouped-sum":
			return fmt.Sprintf(`proc p write ip i as e #time(1 h)
state ss { amt := sum(e.amount)
           n := count(e) } group by p
alert ss.amt > %d
return p, ss.amt, ss.n`, 1000000+k*1000)
		case "big-write":
			return fmt.Sprintf(`proc p write ip i as e
alert e.amount > %d
return p, e.amount`, 1000000+k*500)
		case "global-volume":
			return fmt.Sprintf(`proc p write ip i as e #time(1 h)
state ss { total := sum(e.amount) }
alert ss.total > %d
return ss.total`, 5000000+k*10000)
		case "ts-history":
			return fmt.Sprintf(`proc p write ip i as e #time(500 ms)
state[3] ss { amt := sum(e.amount) } group by p
alert ss[0].amt > ss[1].amt + %d && ss[0].amt > 100
return p, ss[0].amt, ss[1].amt`, 50+k*10)
		case "inv-dsts":
			// Grouped by agent id so the group recurs in every window:
			// training completes mid-stream and detection windows (with
			// their fresh destination sets) straddle the checkpoint.
			return fmt.Sprintf(`proc p write ip i as e #time(600 ms)
state ss { dsts := set(i.dstip) } group by e.agentid
invariant[2] {
  known := empty_set
  known = known union ss.dsts
}
alert |ss.dsts diff known| >= %d
return ss.dsts`, 1-k%2)
		case "outlier-amt":
			return fmt.Sprintf(`proc p write ip i as e #time(700 ms)
state ss { amt := sum(e.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(%d, 3)")
alert cluster.outlier && ss.amt > 1000
return i.dstip, ss.amt`, 100000+k*5000)
		}
		t.Fatalf("unknown query %q", name)
		return ""
	}

	// Generate the script once; the reference and every recovery run replay
	// it verbatim.
	type step struct {
		op    string // submit | pause | resume | update
		block int
		name  string
		src   string
		carry bool
	}
	var script []step
	cpStep, killStep := -1, -1
	cpBlock := blocks/3 + rng.Intn(blocks/3)
	killBlock := cpBlock + rng.Intn(blocks-cpBlock+1)
	cpEvents := cpBlock * blockSize
	paused := map[string]bool{}
	version := map[string]int{}
	for b := 0; b < blocks; b++ {
		if b == cpBlock {
			cpStep = len(script)
		}
		if b == killBlock {
			killStep = len(script)
		}
		script = append(script, step{op: "submit", block: b})
		for i := 0; i < 1+rng.Intn(2); i++ {
			name := names[rng.Intn(len(names))]
			switch rng.Intn(3) {
			case 0:
				if paused[name] {
					script = append(script, step{op: "resume", name: name})
					paused[name] = false
				} else {
					script = append(script, step{op: "pause", name: name})
					paused[name] = true
				}
			case 1:
				version[name]++
				carry := name != "big-write" && rng.Intn(2) == 0
				script = append(script, step{op: "update", name: name, src: variant(name, version[name]), carry: carry})
			case 2:
				// Spacing no-op.
			}
		}
	}
	if cpStep < 0 {
		cpStep = len(script)
	}
	if killStep < 0 {
		killStep = len(script)
	}
	t.Logf("checkpoint at block %d (event %d), kill at block %d, %d script steps", cpBlock, cpEvents, killBlock, len(script))

	// drive executes script[from:to] against eng (serial engines process
	// inline and their alerts are returned; running engines deliver through
	// their handler). Running engines receive each block in randomly sized
	// sub-batches — deterministic in (seed, from) — so the partitioned
	// router's ring buffers are partially drained when the checkpoint
	// barrier (and the kill) land; batch boundaries must never affect what a
	// snapshot captures or what recovery replays.
	drive := func(t *testing.T, eng *Engine, from, to int, serial bool) []*Alert {
		t.Helper()
		chop := rand.New(rand.NewSource(seed + int64(from)*7919))
		var out []*Alert
		for _, st := range script[from:to] {
			switch st.op {
			case "submit":
				lo, hi := st.block*blockSize, (st.block+1)*blockSize
				if st.block == blocks-1 {
					hi = len(events)
				}
				if serial {
					for _, ev := range events[lo:hi] {
						out = append(out, eng.Process(ev)...)
					}
				} else {
					for l := lo; l < hi; {
						h := l + 1 + chop.Intn(48)
						if h > hi {
							h = hi
						}
						if err := eng.SubmitBatch(events[l:h]); err != nil {
							t.Fatal(err)
						}
						l = h
					}
				}
			case "pause", "resume":
				h, ok := eng.Query(st.name)
				if !ok {
					t.Fatalf("%s: no handle for %q", st.op, st.name)
				}
				var err error
				if st.op == "pause" {
					err = h.Pause()
				} else {
					err = h.Resume()
				}
				if err != nil {
					t.Fatalf("%s %s: %v", st.op, st.name, err)
				}
			case "update":
				h, ok := eng.Query(st.name)
				if !ok {
					t.Fatalf("update: no handle for %q", st.name)
				}
				var opts []UpdateOption
				if st.carry {
					opts = append(opts, CarryWindowState())
				}
				if err := h.Update(st.src, opts...); err != nil {
					t.Fatalf("update %s: %v", st.name, err)
				}
			}
		}
		return out
	}
	register := func(t *testing.T, eng *Engine) {
		t.Helper()
		for _, name := range names {
			if _, err := eng.Register(name, variant(name, 0)); err != nil {
				t.Fatalf("Register(%s): %v", name, err)
			}
		}
	}

	// Uninterrupted serial reference.
	ref := New()
	register(t, ref)
	want := drive(t, ref, 0, len(script), true)
	want = append(want, ref.Flush()...)
	if len(want) == 0 {
		t.Fatal("reference run produced no alerts")
	}
	wantIDs := sortedIdentities(want)
	wantOffered := map[string]int64{}
	for _, name := range names {
		qs, _ := ref.QueryStats(name)
		wantOffered[name] = qs.Events
	}

	for _, shards := range []int{1, 2, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var pre, discard, post []*Alert
			sink := &pre
			collect := func(a *Alert) {
				mu.Lock()
				*sink = append(*sink, a)
				mu.Unlock()
			}
			e1 := New(WithShards(shards), WithJournal(store), WithAlertHandler(collect))
			register(t, e1)
			if err := e1.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			drive(t, e1, 0, cpStep, false)
			info, err := e1.Checkpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			if info.Offset != int64(cpEvents) {
				t.Errorf("checkpoint offset = %d, want %d", info.Offset, cpEvents)
			}
			// Everything the handler saw so far is pre-barrier output; the
			// barrier guarantees it is complete and exact.
			mu.Lock()
			sink = &discard
			mu.Unlock()
			// The doomed run keeps going past the checkpoint; its output and
			// control operations die with it.
			drive(t, e1, cpStep, killStep, false)
			if err := e1.Close(); err != nil {
				t.Fatal(err)
			}

			// Restore on the same shard count and re-drive the script from
			// the checkpoint position (the recovery plane re-applies the
			// lost control operations at their recorded stream positions).
			e2, rinfo, err := Restore(dir,
				WithoutReplay(),
				WithRestoreEngineOptions(WithShards(shards), WithAlertHandler(func(a *Alert) {
					mu.Lock()
					post = append(post, a)
					mu.Unlock()
				})),
			)
			if err != nil {
				t.Fatal(err)
			}
			if rinfo.Offset != int64(cpEvents) {
				t.Errorf("restore offset = %d, want %d", rinfo.Offset, cpEvents)
			}
			drive(t, e2, cpStep, len(script), false)
			for _, name := range names {
				if qs, ok := e2.QueryStats(name); !ok || qs.Events != wantOffered[name] {
					t.Errorf("seed %d shards %d: %s: events offered after restore = %d (found %v), uninterrupted = %d",
						seed, shards, name, qs.Events, ok, wantOffered[name])
				}
			}
			if err := e2.Close(); err != nil {
				t.Fatal(err)
			}

			mu.Lock()
			got := append(append([]*Alert{}, pre...), post...)
			mu.Unlock()
			diffAlertSets(t, fmt.Sprintf("seed %d shards %d", seed, shards), wantIDs, sortedIdentities(got))
		})
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
			var evalErrs int
			report := func(error) { evalErrs++ }
			for _, ev := range events {
				q.Process(ev, report)
			}
			q.Flush(report)
			if evalErrs > 0 {
				t.Errorf("%d runtime evaluation errors", evalErrs)
			}
		})
	}
}
