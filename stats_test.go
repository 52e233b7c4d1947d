package saql

// Regression tests for per-engine stats isolation and the source lifecycle:
// symbol-dictionary and string-fallback counters must be scoped to the
// engine that did the work (they were process globals once), finished
// sources must detach without losing their cumulative counters, and a
// closed engine must keep answering Stats/QueryStats with its final values.

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

// runSampleSource ingests examples/auditd-replay/sample.log into eng through
// a fresh Source and waits for completion.
func runSampleSource(t *testing.T, eng *Engine) {
	t.Helper()
	src, err := OpenLogFile(sampleLogPath, WithFormat("auditd"), WithSourceAgent("db-1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Run(context.Background(), eng); err != nil {
		t.Fatal(err)
	}
}

// TestTwoEngineStatsIsolation runs two engines in one process concurrently:
// engine A ingests the auditd sample once, engine B twice. Every per-engine
// counter must reflect only its own engine's work (B exactly double A) —
// under the old process-global counters each engine reported the sum of
// both. Run with -race in CI: the counters are updated from source and
// runtime goroutines of both engines at once.
func TestTwoEngineStatsIsolation(t *testing.T) {
	newEng := func() *Engine {
		eng := New()
		if _, err := eng.Register("iso/exfil-volume", sampleQueries["exfil-volume"]); err != nil {
			t.Fatal(err)
		}
		if err := eng.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	a, b := newEng(), newEng()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		runSampleSource(t, a)
	}()
	go func() {
		defer wg.Done()
		runSampleSource(t, b)
		runSampleSource(t, b)
	}()
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	sa, sb := a.Stats(), b.Stats()
	if sa.SourceLines == 0 || sa.SourceEvents == 0 {
		t.Fatalf("engine A ingested nothing: %+v", sa)
	}
	if sa.SymbolHits+sa.SymbolMisses == 0 {
		t.Fatal("engine A interned no symbols — isolation test proves nothing")
	}
	type pair struct {
		name string
		a, b int64
	}
	for _, p := range []pair{
		{"SourceLines", sa.SourceLines, sb.SourceLines},
		{"SourceEvents", sa.SourceEvents, sb.SourceEvents},
		{"DecodeErrors", sa.DecodeErrors, sb.DecodeErrors},
		{"SymbolHits", sa.SymbolHits, sb.SymbolHits},
		{"SymbolMisses", sa.SymbolMisses, sb.SymbolMisses},
		{"SymbolEntries", int64(sa.SymbolEntries), int64(sb.SymbolEntries)},
		{"SymbolFallbacks", sa.SymbolFallbacks, sb.SymbolFallbacks},
		{"Events", sa.Events, sb.Events},
	} {
		if p.b != 2*p.a {
			t.Errorf("%s: B = %d, want exactly 2x A (%d) — counters are leaking across engines", p.name, p.b, p.a)
		}
	}
}

// TestSourceDetachKeepsCounters: a finished source detaches from the engine
// (Stats.Sources counts live sources only) but its counters stay in the
// engine's cumulative totals, accumulating across sources.
func TestSourceDetachKeepsCounters(t *testing.T) {
	eng := New()
	defer eng.Close()
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	runSampleSource(t, eng)
	st := eng.Stats()
	if st.Sources != 0 {
		t.Errorf("Sources after Run = %d, want 0 (detached)", st.Sources)
	}
	if st.SourceLines == 0 || st.SourceEvents == 0 {
		t.Errorf("detach lost cumulative counters: %+v", st)
	}
	first := st

	runSampleSource(t, eng)
	st = eng.Stats()
	if st.Sources != 0 {
		t.Errorf("Sources after second Run = %d, want 0", st.Sources)
	}
	if st.SourceLines != 2*first.SourceLines || st.SourceEvents != 2*first.SourceEvents {
		t.Errorf("second source did not accumulate: lines %d events %d, want %d/%d",
			st.SourceLines, st.SourceEvents, 2*first.SourceLines, 2*first.SourceEvents)
	}
	if st.SymbolHits != 2*first.SymbolHits || st.SymbolMisses != 2*first.SymbolMisses {
		t.Errorf("symbol counters did not accumulate: %d/%d, want %d/%d",
			st.SymbolHits, st.SymbolMisses, 2*first.SymbolHits, 2*first.SymbolMisses)
	}
}

// TestStatsStableAfterClose: Stats, QueryStats and Tenants answered after
// Close must equal the final pre-Close values instead of going stale or zero,
// read by several goroutines at once (run with -race: a closed engine serves
// them from its runtime's replicas, and reading a replica settles its slice
// log).
func TestStatsStableAfterClose(t *testing.T) {
	queries := map[string]string{
		"final/writes": perWriteAlertSrc,
		"final/sum": `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 1000
return p, ss.amt`,
	}
	eng := New(WithShards(2))
	for name, src := range queries {
		if _, err := eng.Register(name, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	batch := make([]*Event, 0, 10)
	for i := 0; i < 10; i++ {
		batch = append(batch, writeEvent(time.Duration(i)*time.Second, "curl", 500))
	}
	if err := eng.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}
	eng.Flush() // consistent point: all windows closed, all alerts out

	pre := eng.Stats()
	preQ := map[string]QueryStats{}
	for name := range queries {
		qs, ok := eng.QueryStats(name)
		if !ok || qs.Alerts == 0 {
			t.Fatalf("pre-Close QueryStats(%s) implausible: %+v, %v", name, qs, ok)
		}
		preQ[name] = qs
	}
	preT := eng.Tenants()
	if pre.Events != 10 || len(preT) != 1 {
		t.Fatalf("pre-Close stats implausible: %+v / %+v", pre, preT)
	}

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if post := eng.Stats(); post != pre {
					t.Errorf("Stats changed across Close:\npre:  %+v\npost: %+v", pre, post)
				}
				for name, want := range preQ {
					if got, ok := eng.QueryStats(name); !ok || got != want {
						t.Errorf("QueryStats(%s) changed across Close:\npre:  %+v\npost: %+v", name, want, got)
					}
				}
				if post := eng.Tenants(); !reflect.DeepEqual(post, preT) {
					t.Errorf("Tenants changed across Close:\npre:  %+v\npost: %+v", preT, post)
				}
			}
		}()
	}
	wg.Wait()
}

// TestFallbackCounterPerEngine: string-fallback comparisons land on the
// engine whose query performed them, not on a process-wide counter.
func TestFallbackCounterPerEngine(t *testing.T) {
	busy, idle := New(), New()
	defer busy.Close()
	defer idle.Close()
	for _, eng := range []*Engine{busy, idle} {
		if _, err := eng.Register("fb/writes", `proc p["curl"] write ip i as e
alert e.amount > 100
return p`); err != nil {
			t.Fatal(err)
		}
	}
	// Hand-constructed events carry no interned symbols, so exe matching
	// falls back to string comparison — on the busy engine only.
	for i := 0; i < 20; i++ {
		busy.Process(writeEvent(time.Duration(i)*time.Second, "curl", 500))
	}
	if n := busy.Stats().SymbolFallbacks; n == 0 {
		t.Skip("no string fallbacks on this path — counter attribution not exercised")
	}
	if n := idle.Stats().SymbolFallbacks; n != 0 {
		t.Errorf("idle engine reports %d fallbacks it never performed", n)
	}
}

// TestStatsAfterCloseMatchSerial: engines started at 1, 2 and 8 shards and
// closed without a stats read must report after Close every counter a serial
// engine flushed and closed over the same stream reports, StateBytes
// included: the capture after Close stamps the router's events-offered
// counts onto the replicas, as a barrier does.
func TestStatsAfterCloseMatchSerial(t *testing.T) {
	events := concurrencyWorkload(48, 20)
	closed := func(shards int) map[string]QueryStats {
		eng := fedEngine(t, shards, events)
		if shards == 0 {
			eng.Flush()
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		out := map[string]QueryStats{}
		for _, q := range concurrencyQueries {
			out[q.name], _ = eng.QueryStats("acme/" + q.name)
		}
		return out
	}
	want := closed(0)
	for _, shards := range []int{1, 2, 8} {
		if got := closed(shards); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: after Close %+v, serial %+v", shards, got, want)
		}
	}
}
