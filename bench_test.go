package saql

// Benchmarks regenerating the paper's experiments E1–E8, one per
// table/figure-equivalent — `go test -run '^$' -bench 'BenchmarkE[1-8]' .`
// is how the paper's numbers are regenerated — plus
// BenchmarkE9_ParallelIngestion, a smoke run of the sharded runtime, and
// BenchmarkRestoreTail, a restore over a journal. The shapes the experiments
// reproduce are asserted by tests: TestKillChainDetection (E1/E2),
// TestConcurrentQueriesShareOneCopy (E3), TestOutlierEpsSensitivity (E7)
// and internal/replayer's TestReplayPacing (E5). For local iteration only:
// performance claims are made with the repository benchmark (bench/).

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"saql/internal/attack"
	"saql/internal/baseline"
)

func benchCtx() context.Context { return context.Background() }

var benchOnce sync.Once
var benchEvents []*Event
var benchScenario *AttackScenario

// benchStream builds one mixed background+attack stream reused by all
// benchmarks (generation cost excluded from timings).
func benchStream(b *testing.B) ([]*Event, *AttackScenario) {
	b.Helper()
	benchOnce.Do(func() {
		start := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)
		wl, err := NewWorkload(WorkloadConfig{
			Hosts: []Host{
				{AgentID: "ws-victim", Kind: Workstation},
				{AgentID: "ws-2", Kind: Workstation},
				{AgentID: "mail-1", Kind: MailServer},
				{AgentID: "web-1", Kind: WebServer},
				{AgentID: "db-1", Kind: DBServer},
			},
			Start:    start,
			Duration: 30 * time.Minute,
			Seed:     42,
		})
		if err != nil {
			panic(err)
		}
		events := wl.Drain()
		benchScenario = &AttackScenario{
			Workstation: "ws-victim", MailServer: "mail-1", DBServer: "db-1",
			AttackerIP: "172.16.0.129", Start: start.Add(12 * time.Minute),
		}
		events = append(events, AttackEventsOnly(benchScenario.Events())...)
		sort.SliceStable(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
		benchEvents = events
	})
	return benchEvents, benchScenario
}

// runQueries pumps b.N events (cycling over the stream) through an engine.
func runQueries(b *testing.B, queries []attack.NamedQuery, sharing bool) {
	b.Helper()
	events, _ := benchStream(b)
	eng := New(WithSharing(sharing))
	for _, nq := range queries {
		if _, err := eng.Register(nq.Name, nq.SAQL); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Process(events[i%len(events)])
	}
	b.StopTimer()
	eng.Flush()
	st := eng.Stats()
	b.ReportMetric(float64(st.Alerts), "alerts")
	b.ReportMetric(float64(st.StreamCopies)/float64(st.Events), "copies/ev")
}

// --- E1: the paper's Queries 1–4 -------------------------------------------

func BenchmarkE1_PaperQueries(b *testing.B) {
	_, scenario := benchStream(b)
	all := scenario.DemoQueries(30*time.Second, 5)
	cases := map[string]attack.NamedQuery{
		"Q1_rule":       all[4], // the exfiltration rule (paper Query 1)
		"Q2_timeseries": all[6],
		"Q3_invariant":  all[5],
		"Q4_outlier":    all[7],
	}
	for name, nq := range cases {
		b.Run(name, func(b *testing.B) { runQueries(b, []attack.NamedQuery{nq}, true) })
	}
}

// --- E2: the full 8-query kill-chain demo ----------------------------------

func BenchmarkE2_KillChain(b *testing.B) {
	_, scenario := benchStream(b)
	runQueries(b, scenario.DemoQueries(30*time.Second, 5), true)
}

// --- E3: concurrent-query scaling, sharing vs per-query copies -------------

// e3Queries builds n semantically compatible variants of the time-series
// query (same patterns, different thresholds), the concurrent-analyst
// situation the master–dependent-query scheme targets.
func e3Queries(scenario *AttackScenario, n int) []attack.NamedQuery {
	base := scenario.DemoQueries(30*time.Second, 5)[6]
	out := make([]attack.NamedQuery, n)
	for i := range out {
		out[i] = base
		out[i].Name = fmt.Sprintf("%s-v%d", base.Name, i)
		out[i].SAQL = base.SAQL + fmt.Sprintf("\nalert ss[0].avg_amount > %d", 1000000+i*1000)
	}
	return out
}

func BenchmarkE3_ConcurrentQueries(b *testing.B) {
	_, scenario := benchStream(b)
	for _, n := range []int{1, 4, 16, 64} {
		queries := e3Queries(scenario, n)
		b.Run(fmt.Sprintf("saql_shared/queries=%d", n), func(b *testing.B) {
			runQueries(b, queries, true)
		})
		b.Run(fmt.Sprintf("saql_noshare/queries=%d", n), func(b *testing.B) {
			runQueries(b, queries, false)
		})
		b.Run(fmt.Sprintf("baseline_cep/queries=%d", n), func(b *testing.B) {
			events, _ := benchStream(b)
			eng := baseline.New(nil)
			for _, nq := range queries {
				q, err := compileQuery(nq.Name, nq.SAQL)
				if err != nil {
					b.Fatal(err)
				}
				eng.Add(q)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Process(events[i%len(events)])
			}
		})
	}
}

// --- E9: parallel ingestion throughput (sharded runtime) --------------------

// BenchmarkE9_ParallelIngestion measures the concurrent ingestion API
// (Start / SubmitBatch / sharded runtime) against the serial Process path
// on the sharable-query workload: 16 semantically compatible time-series
// variants whose per-group aggregation state partitions across shards
// (PlaceByGroup). Compare serial vs shards=N events/s for the speedup.
//
// The router pre-evaluates pattern hits once per event (shared
// evaluation), so the patevals/ev metric must stay flat as shards grow —
// it equals the serial count at every shard width — and resolves each hit's
// group key once for the whole key class (keyevals/ev: one per hit event for
// the 16 variants, serial path included). Each key then costs one directory
// probe (probes/ev: equal to keyevals/ev here, the class being by-group)
// before all 16 variants fold by group id. Hits are then partition-routed
// rather than broadcast: each shard is handed batched fold ops — one per
// variant set, not per query — only for the group/event/pinned state it
// owns, plus watermark-bearing touch ops that keep window cadence aligned,
// so per-shard folding work shrinks as shards grow. B/ev is what the whole
// engine allocates per event: window closes, alerts, the slabs the pool
// has to make and this loop's own batch slices (8 B) — no hit tables.
// Wall-clock speedup
// over serial follows wherever GOMAXPROCS >= shards. On a single-core
// machine ns/op instead reports the summed cost across shards.
func BenchmarkE9_ParallelIngestion(b *testing.B) {
	_, scenario := benchStream(b)
	queries := e3Queries(scenario, 16)

	newEngine := func(b *testing.B, opts ...Option) *Engine {
		eng := New(opts...)
		for _, nq := range queries {
			if _, err := eng.Register(nq.Name, nq.SAQL); err != nil {
				b.Fatal(err)
			}
		}
		return eng
	}

	// perEvent reports how much matching and keying work the engine performed
	// per event — the shared-evaluation acceptance metrics, both flat in the
	// shard count — and, from a heap reading taken when the timer started, the
	// bytes the whole engine allocated per event over the timed region.
	perEvent := func(b *testing.B, eng *Engine, start *runtime.MemStats) {
		b.Helper()
		var end runtime.MemStats
		runtime.ReadMemStats(&end)
		st := eng.Stats()
		if st.Events > 0 {
			b.ReportMetric(float64(st.PatternEvals)/float64(st.Events), "patevals/ev")
			b.ReportMetric(float64(st.KeyEvals)/float64(st.Events), "keyevals/ev")
			b.ReportMetric(float64(st.GroupProbes)/float64(st.Events), "probes/ev")
			b.ReportMetric(float64(end.TotalAlloc-start.TotalAlloc)/float64(st.Events), "B/ev")
		}
	}

	b.Run("serial", func(b *testing.B) {
		events, _ := benchStream(b)
		eng := newEngine(b)
		var start runtime.MemStats
		runtime.ReadMemStats(&start)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Process(events[i%len(events)])
		}
		b.StopTimer()
		perEvent(b, eng, &start)
		eng.Flush()
	})

	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			events, _ := benchStream(b)
			eng := newEngine(b, WithShards(shards), WithIngestQueue(64))
			if err := eng.Start(benchCtx()); err != nil {
				b.Fatal(err)
			}
			const batch = 512
			var start runtime.MemStats
			runtime.ReadMemStats(&start)
			b.ReportAllocs()
			b.ResetTimer()
			buf := make([]*Event, 0, batch)
			for i := 0; i < b.N; i++ {
				buf = append(buf, events[i%len(events)])
				if len(buf) == batch {
					if err := eng.SubmitBatch(buf); err != nil {
						b.Fatal(err)
					}
					buf = make([]*Event, 0, batch)
				}
			}
			if err := eng.SubmitBatch(buf); err != nil {
				b.Fatal(err)
			}
			// Close drains and flushes: include it so the measurement
			// covers the full processing, not just enqueueing.
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			perEvent(b, eng, &start)
		})
	}
}

// --- E4: per-model engine overhead ------------------------------------------

func BenchmarkE4_ModelOverhead(b *testing.B) {
	_, scenario := benchStream(b)
	all := scenario.DemoQueries(30*time.Second, 5)
	models := map[string]attack.NamedQuery{
		"rule":       all[4],
		"timeseries": all[6],
		"invariant":  all[5],
		"outlier":    all[7],
	}
	for name, nq := range models {
		b.Run(name, func(b *testing.B) {
			events, _ := benchStream(b)
			q, err := compileQuery(nq.Name, nq.SAQL)
			if err != nil {
				b.Fatal(err)
			}
			s := soloScheduler(b, q, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Process(events[i%len(events)])
			}
		})
	}
}

// --- E5: stream replayer throughput ------------------------------------------

func BenchmarkE5_Replayer(b *testing.B) {
	events, _ := benchStream(b)
	dir := b.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := store.AppendAll(events); err != nil {
		b.Fatal(err)
	}

	b.Run("store_append", func(b *testing.B) {
		dir := b.TempDir()
		s, _ := OpenStore(dir, StoreOptions{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.AppendAll(events[i%len(events) : i%len(events)+1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay_maxspeed", func(b *testing.B) {
		rep := NewReplayer(store)
		b.ReportAllocs()
		b.ResetTimer()
		done := 0
		for done < b.N {
			stats, err := rep.Replay(benchCtx(), ReplayOptions{Speed: 0}, func(*Event) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			done += int(stats.Events)
		}
	})
}

// BenchmarkRestoreTail is a restore's journal work end to end: a journaled
// run of the demo queries checkpoints at 95% of the stream and dies at the
// end of it, and each iteration is one Restore — snapshot load, journal
// recovery, the seek past 95% of a sealed journal and the replay of the last
// 5%. ns/record divides by every journaled record, skipped or replayed.
func BenchmarkRestoreTail(b *testing.B) {
	events, scenario := benchStream(b)
	dir := b.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	eng := New(WithJournal(store))
	for _, nq := range scenario.DemoQueries(30*time.Second, 5) {
		if _, err := eng.Register(nq.Name, nq.SAQL); err != nil {
			b.Fatal(err)
		}
	}
	barrier := len(events) * 95 / 100
	for _, ev := range events[:barrier] {
		eng.Process(ev)
	}
	if _, err := eng.Checkpoint(dir); err != nil {
		b.Fatal(err)
	}
	for _, ev := range events[barrier:] {
		eng.Process(ev)
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored, info, err := Restore(dir, WithoutStart())
		if err != nil {
			b.Fatal(err)
		}
		if info.Replayed != int64(len(events)-barrier) {
			b.Fatalf("replayed %d of a %d-record tail", info.Replayed, len(events)-barrier)
		}
		if err := restored.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/record")
}

// --- E6: window state maintenance --------------------------------------------

func BenchmarkE6_Windows(b *testing.B) {
	// Window length, and hopping windows of one length with shorter hops:
	// more closes per event.
	for _, win := range []string{"10 s", "1 min", "10 min", "1 min, 30 s", "1 min, 10 s"} {
		b.Run("len="+win, func(b *testing.B) {
			benchStateful(b, fmt.Sprintf(`proc p write ip i as evt #time(%s)
state[3] ss { avg_amount := avg(evt.amount) } group by p
alert ss[0].avg_amount > 1000000000
return p`, win))
		})
	}
	// Group cardinality ablation: group by process vs by destination IP
	// (many more groups).
	for _, g := range []struct{ name, expr string }{
		{"groups=proc", "p"},
		{"groups=dstip", "i.dstip"},
		{"groups=proc_and_ip", "p, i.dstip"},
	} {
		b.Run(g.name, func(b *testing.B) {
			benchStateful(b, fmt.Sprintf(`proc p write ip i as evt #time(1 min)
state ss { amt := sum(evt.amount) } group by %s
alert ss.amt > 1000000000
return ss.amt`, g.expr))
		})
	}
}

// benchStateful pumps b.N events of the stream through one stateful query
// and reports the windows it closed, the last ones flushed.
func benchStateful(b *testing.B, src string) {
	events, _ := benchStream(b)
	q, err := compileQuery("win", src)
	if err != nil {
		b.Fatal(err)
	}
	s := soloScheduler(b, q, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(events[i%len(events)])
	}
	b.StopTimer()
	s.Flush()
	b.ReportMetric(float64(q.Stats().WindowsClosed), "windows")
}

// --- E7: clustering (outlier model) -------------------------------------------

func BenchmarkE7_Clustering(b *testing.B) {
	// The engine clusters one point per group at window close; this
	// isolates the clustering cost via increasingly many dstip groups fed
	// to the paper's DBSCAN spec and the KMEANS ablation.
	for _, method := range []string{`DBSCAN(100000, 3)`, `KMEANS(3)`} {
		for _, groups := range []int{16, 64, 256} {
			name := fmt.Sprintf("%s/groups=%d", method[:6], groups)
			b.Run(name, func(b *testing.B) {
				q, err := compileQuery("clu", outlierQuery(method))
				if err != nil {
					b.Fatal(err)
				}
				// One event per group per window, one group the planted
				// peer (TestOutlierEpsSensitivity asserts what is flagged).
				evs := outlierWindows(groups)
				s := soloScheduler(b, q, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Process(evs[i%len(evs)])
				}
			})
		}
	}
}

// --- E8: parser/compiler throughput -------------------------------------------

func BenchmarkE8_Parser(b *testing.B) {
	_, scenario := benchStream(b)
	queries := scenario.DemoQueries(30*time.Second, 5)
	b.Run("validate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Validate(queries[i%len(queries)].SAQL); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nq := queries[i%len(queries)]
			if _, err := compileQuery(nq.Name, nq.SAQL); err != nil {
				b.Fatal(err)
			}
		}
	})
}
