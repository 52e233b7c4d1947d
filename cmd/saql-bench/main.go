// Command saql-bench regenerates the paper's experiments E1–E8 and prints
// paper-style tables. The absolute numbers depend on the machine; the shapes
// — every attack step detected, advanced models detected without attack
// knowledge, sharing flattening the per-query cost curve — are the
// reproduction targets, and each experiment prints the shape it checks.
// Performance claims are made with the repository benchmark (bench/), not
// here.
//
// Usage:
//
//	saql-bench            # run all experiments
//	saql-bench -exp e3    # run one experiment
//	saql-bench -exp e2 -duration 30m -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"saql"
)

var (
	expFlag  = flag.String("exp", "all", "experiment to run: e1..e8 or all")
	duration = flag.Duration("duration", 30*time.Minute, "background stream duration")
	seed     = flag.Int64("seed", 42, "workload seed")
	window   = flag.Duration("window", 30*time.Second, "window length for demo queries")
	train    = flag.Int("train", 5, "invariant training windows")
)

var streamStart = time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

func main() {
	flag.Parse()
	exps := map[string]func(){
		"e1": e1, "e2": e2, "e3": e3, "e4": e4,
		"e5": e5, "e6": e6, "e7": e7, "e8": e8,
	}
	if *expFlag == "all" {
		for _, name := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"} {
			exps[name]()
		}
		return
	}
	fn, ok := exps[strings.ToLower(*expFlag)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (e1..e8 or all)\n", *expFlag)
		os.Exit(2)
	}
	fn()
}

// buildStream mixes background and the kill chain, returning the sorted
// stream, the scenario, and the attack step start times.
func buildStream() ([]*saql.Event, *saql.AttackScenario, map[saql.AttackStep]time.Time) {
	wl, err := saql.NewWorkload(saql.WorkloadConfig{
		Hosts: []saql.Host{
			{AgentID: "ws-victim", Kind: saql.Workstation},
			{AgentID: "ws-2", Kind: saql.Workstation},
			{AgentID: "mail-1", Kind: saql.MailServer},
			{AgentID: "web-1", Kind: saql.WebServer},
			{AgentID: "db-1", Kind: saql.DBServer},
		},
		Start: streamStart, Duration: *duration, Seed: *seed,
	})
	if err != nil {
		panic(err)
	}
	events := wl.Drain()
	scenario := &saql.AttackScenario{
		Workstation: "ws-victim", MailServer: "mail-1", DBServer: "db-1",
		AttackerIP: "172.16.0.129",
		Start:      streamStart.Add(*duration * 2 / 5),
	}
	stepStart := map[saql.AttackStep]time.Time{}
	labeled := scenario.Events()
	for _, l := range labeled {
		if _, ok := stepStart[l.Step]; !ok {
			stepStart[l.Step] = l.Event.Time
		}
	}
	events = append(events, saql.AttackEventsOnly(labeled)...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
	return events, scenario, stepStart
}

func header(title string) {
	fmt.Printf("\n==============================================================\n")
	fmt.Printf("%s\n", title)
	fmt.Printf("==============================================================\n")
}

// --- E1 ---------------------------------------------------------------------

func e1() {
	header("E1  Paper Queries 1-4: detection + per-query engine throughput")
	events, scenario, _ := buildStream()
	all := scenario.DemoQueries(*window, *train)
	cases := []struct {
		label string
		nq    saql.NamedQuery
	}{
		{"Query 1 (rule: exfiltration)", all[4]},
		{"Query 2 (time-series: SMA)", all[6]},
		{"Query 3 (invariant: children)", all[5]},
		{"Query 4 (outlier: DBSCAN)", all[7]},
	}
	fmt.Printf("%-34s %10s %10s %14s %12s\n", "query", "alerts", "events", "events/s", "1st latency")
	for _, c := range cases {
		q, err := saql.CompileQuery(c.nq.Name, c.nq.SAQL)
		if err != nil {
			panic(err)
		}
		var alerts int
		var firstLatency time.Duration
		started := time.Now()
		for _, ev := range events {
			for _, a := range q.Process(ev, nil) {
				if alerts == 0 {
					// Detection latency relative to the triggering
					// activity's event time (window end for stateful).
					firstLatency = a.EventTime.Sub(scenario.Start)
				}
				alerts++
			}
		}
		for _, a := range q.Flush(nil) {
			_ = a
			alerts++
		}
		wall := time.Since(started)
		lat := "-"
		if alerts > 0 {
			lat = firstLatency.Round(time.Second).String()
		}
		fmt.Printf("%-34s %10d %10d %14.0f %12s\n",
			c.label, alerts, len(events), float64(len(events))/wall.Seconds(), lat)
	}
	fmt.Println("shape check: every query type raises alerts on the attack stream;")
	fmt.Println("latencies are bounded by the window length for stateful models.")
}

// --- E2 ---------------------------------------------------------------------

func e2() {
	header("E2  Kill-chain demo: 8 queries vs 5 attack steps (Fig 2/3)")
	events, scenario, stepStart := buildStream()
	queries := scenario.DemoQueries(*window, *train)

	eng := saql.New()
	for _, nq := range queries {
		if _, err := eng.Register(nq.Name, nq.SAQL); err != nil {
			panic(err)
		}
	}
	firstAlert := map[string]time.Time{}
	counts := map[string]int{}
	started := time.Now()
	for _, ev := range events {
		for _, a := range eng.Process(ev) {
			if _, ok := firstAlert[a.Query]; !ok {
				firstAlert[a.Query] = a.EventTime
			}
			counts[a.Query]++
		}
	}
	for _, a := range eng.Flush() {
		if _, ok := firstAlert[a.Query]; !ok {
			firstAlert[a.Query] = a.EventTime
		}
		counts[a.Query]++
	}
	wall := time.Since(started)

	fmt.Printf("%-38s %-6s %-12s %8s %16s\n", "query", "step", "model", "alerts", "detect delay")
	for _, nq := range queries {
		delay := "-"
		if ft, ok := firstAlert[nq.Name]; ok {
			ref := scenario.Start
			if nq.Step != "" {
				ref = stepStart[nq.Step]
			}
			delay = ft.Sub(ref).Round(time.Second).String()
		}
		step := string(nq.Step)
		if step == "" {
			step = "-"
		}
		fmt.Printf("%-38s %-6s %-12s %8d %16s\n", nq.Name, step, nq.Model, counts[nq.Name], delay)
	}
	st := eng.Stats()
	fmt.Printf("\nstream: %d events in %s (%.0f events/s, %d queries, %d groups)\n",
		len(events), wall.Round(time.Millisecond), float64(len(events))/wall.Seconds(), st.Queries, st.QueryGroups)
	fmt.Println("shape check: all 5 rule queries detect their steps; the 3 advanced")
	fmt.Println("anomaly queries detect c2/c5 with no knowledge of the attack.")
}

// --- E3 ---------------------------------------------------------------------

func e3() {
	header("E3  Concurrent queries: master-dependent sharing vs per-query copies")
	events, scenario, _ := buildStream()
	base := scenario.DemoQueries(*window, *train)[6] // time-series family

	variants := func(n int) []saql.NamedQuery {
		out := make([]saql.NamedQuery, n)
		for i := range out {
			out[i] = base
			out[i].Name = fmt.Sprintf("v%d", i)
			out[i].SAQL = base.SAQL + fmt.Sprintf("\nalert ss[0].avg_amount > %d", 1000000+i*1000)
		}
		return out
	}

	fmt.Printf("%8s | %14s %12s | %14s | %14s | %10s\n",
		"queries", "shared ev/s", "copies/ev", "noshare ev/s", "baseline ev/s", "ratio")
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		qs := variants(n)

		shared := saql.New(saql.WithSharing(true))
		for _, nq := range qs {
			if _, err := shared.Register(nq.Name, nq.SAQL); err != nil {
				panic(err)
			}
		}
		t0 := time.Now()
		for _, ev := range events {
			shared.Process(ev)
		}
		shared.Flush()
		sharedRate := float64(len(events)) / time.Since(t0).Seconds()
		st := shared.Stats()
		copies := float64(st.StreamCopies) / float64(st.Events)

		noshare := saql.New(saql.WithSharing(false))
		for _, nq := range qs {
			if _, err := noshare.Register(nq.Name, nq.SAQL); err != nil {
				panic(err)
			}
		}
		t0 = time.Now()
		for _, ev := range events {
			noshare.Process(ev)
		}
		noshare.Flush()
		noshareRate := float64(len(events)) / time.Since(t0).Seconds()

		baseEng := saql.NewBaselineEngine()
		for _, nq := range qs {
			q, err := saql.CompileQuery(nq.Name, nq.SAQL)
			if err != nil {
				panic(err)
			}
			baseEng.Add(q)
		}
		t0 = time.Now()
		for _, ev := range events {
			baseEng.Process(ev)
		}
		baseEng.Flush()
		baseRate := float64(len(events)) / time.Since(t0).Seconds()

		fmt.Printf("%8d | %14.0f %12.2f | %14.0f | %14.0f | %9.1fx\n",
			n, sharedRate, copies, noshareRate, baseRate, st.SharingRatio)
	}
	fmt.Println("shape check: shared copies/event stay at 1 as queries grow (the")
	fmt.Println("baseline pays n copies); shared throughput degrades far slower.")
}

// --- E4 ---------------------------------------------------------------------

func e4() {
	header("E4  Per-model engine overhead (ns/event)")
	events, scenario, _ := buildStream()
	all := scenario.DemoQueries(*window, *train)
	models := []struct {
		label string
		nq    saql.NamedQuery
	}{
		{"rule (4-pattern sequence)", all[4]},
		{"time-series (SMA, state[3])", all[6]},
		{"invariant (set learning)", all[5]},
		{"outlier (DBSCAN per window)", all[7]},
	}
	fmt.Printf("%-32s %12s %14s %10s\n", "model", "ns/event", "events/s", "alerts")
	for _, m := range models {
		q, err := saql.CompileQuery(m.nq.Name, m.nq.SAQL)
		if err != nil {
			panic(err)
		}
		var alerts int
		t0 := time.Now()
		for _, ev := range events {
			alerts += len(q.Process(ev, nil))
		}
		alerts += len(q.Flush(nil))
		wall := time.Since(t0)
		fmt.Printf("%-32s %12.0f %14.0f %10d\n",
			m.label, float64(wall.Nanoseconds())/float64(len(events)),
			float64(len(events))/wall.Seconds(), alerts)
	}
	fmt.Println("shape check: all models sustain enterprise event rates (the paper")
	fmt.Println("cites ~50GB/day for 100 hosts, i.e. thousands of events/s).")
}

// --- E5 ---------------------------------------------------------------------

func e5() {
	header("E5  Stream replayer: selection fidelity and speedup (Fig 4)")
	events, _, _ := buildStream()
	dir, err := os.MkdirTemp("", "saql-bench-store")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	store, err := saql.OpenStore(dir, saql.StoreOptions{})
	if err != nil {
		panic(err)
	}
	if err := store.AppendAll(events); err != nil {
		panic(err)
	}
	rep := saql.NewReplayer(store)

	// Replay a 2-minute, single-host slice at increasing speeds.
	sel := saql.ReplayOptions{
		Hosts: []string{"db-1"},
		From:  streamStart.Add(2 * time.Minute),
		To:    streamStart.Add(4 * time.Minute),
	}
	fmt.Printf("%10s %10s %12s %12s %12s\n", "speed", "events", "span", "wall", "achieved")
	for _, speed := range []float64{10, 100, 1000, 0} {
		opts := sel
		opts.Speed = speed
		stats, err := rep.Replay(context.Background(), opts, func(*saql.Event) error { return nil })
		if err != nil {
			panic(err)
		}
		label := fmt.Sprintf("%.0fx", speed)
		if speed == 0 {
			label = "max"
		}
		fmt.Printf("%10s %10d %12s %12s %11.0fx\n",
			label, stats.Events, stats.EventSpan().Round(time.Millisecond),
			stats.Wall.Round(time.Millisecond), stats.Speedup())
	}
	fmt.Println("shape check: achieved speedup tracks the requested multiplier and")
	fmt.Println("is orders of magnitude above real time at max speed.")
}

// --- E6 ---------------------------------------------------------------------

func e6() {
	header("E6  State maintenance: window length and group cardinality")
	events, _, _ := buildStream()
	fmt.Printf("%-28s %12s %14s %10s\n", "configuration", "ns/event", "events/s", "windows")
	for _, win := range []string{"10 s", "1 min", "10 min"} {
		src := fmt.Sprintf(`proc p write ip i as evt #time(%s)
state[3] ss { avg_amount := avg(evt.amount) } group by p
alert ss[0].avg_amount > 1000000000
return p`, win)
		runStateful("tumbling "+win, src, events)
	}
	for _, hop := range []string{"#time(1 min)", "#time(1 min, 30 s)", "#time(1 min, 10 s)"} {
		src := fmt.Sprintf(`proc p write ip i as evt %s
state ss { amt := sum(evt.amount) } group by p
alert ss.amt > 1000000000
return p`, hop)
		runStateful(hop, src, events)
	}
	for _, g := range []struct{ label, expr string }{
		{"group by proc", "p"},
		{"group by dstip", "i.dstip"},
		{"group by proc+dstip", "p, i.dstip"},
	} {
		src := fmt.Sprintf(`proc p write ip i as evt #time(1 min)
state ss { amt := sum(evt.amount) } group by %s
alert ss.amt > 1000000000
return ss.amt`, g.expr)
		runStateful(g.label, src, events)
	}
	fmt.Println("shape check: shorter windows and hops cost more closures; group")
	fmt.Println("cardinality dominates state cost, as the paper's design expects.")
}

func runStateful(label, src string, events []*saql.Event) {
	q, err := saql.CompileQuery(label, src)
	if err != nil {
		panic(err)
	}
	t0 := time.Now()
	for _, ev := range events {
		q.Process(ev, nil)
	}
	q.Flush(nil)
	wall := time.Since(t0)
	st := q.Stats()
	fmt.Printf("%-28s %12.0f %14.0f %10d\n",
		label, float64(wall.Nanoseconds())/float64(len(events)),
		float64(len(events))/wall.Seconds(), st.WindowsClosed)
}

// --- E7 ---------------------------------------------------------------------

func e7() {
	header("E7  Outlier model: DBSCAN vs KMEANS, parameter sensitivity")
	// Synthetic windows: one point per group, with one planted outlier.
	mkEvents := func(groups int) []*saql.Event {
		var out []*saql.Event
		for w := 0; w < 32; w++ {
			at := streamStart.Add(time.Duration(w) * 10 * time.Second)
			for g := 0; g < groups; g++ {
				amt := 50000 + float64(g%7)*300
				if g == groups-1 {
					amt = 5e7 // the exfiltration peer
				}
				out = append(out, &saql.Event{
					Time:    at.Add(time.Duration(g) * time.Millisecond),
					AgentID: "db-1",
					Subject: saql.Process("sqlservr.exe", 1680),
					Op:      saql.OpWrite,
					Object:  saql.NetConn("10.0.0.2", 1433, fmt.Sprintf("10.0.%d.%d", g/250, g%250), 49000),
					Amount:  amt,
				})
			}
		}
		return out
	}
	fmt.Printf("%-24s %8s %12s %14s %10s\n", "method", "groups", "ns/event", "events/s", "alerts")
	for _, method := range []string{"DBSCAN(100000, 3)", "KMEANS(3)"} {
		for _, groups := range []int{16, 64, 256, 1024} {
			evs := mkEvents(groups)
			src := fmt.Sprintf(`proc p write ip i as evt #time(10 s)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method=%q)
alert cluster.outlier && ss.amt > 1000000
return i.dstip, ss.amt`, method)
			q, err := saql.CompileQuery("clu", src)
			if err != nil {
				panic(err)
			}
			var alerts int
			t0 := time.Now()
			for _, ev := range evs {
				alerts += len(q.Process(ev, nil))
			}
			alerts += len(q.Flush(nil))
			wall := time.Since(t0)
			fmt.Printf("%-24s %8d %12.0f %14.0f %10d\n",
				method, groups, float64(wall.Nanoseconds())/float64(len(evs)),
				float64(len(evs))/wall.Seconds(), alerts)
		}
	}
	// DBSCAN eps sensitivity on detection of the planted outlier.
	fmt.Printf("\n%-24s %10s\n", "DBSCAN eps", "outlier windows detected (of 32)")
	for _, eps := range []int{1000, 10000, 100000, 1000000, 100000000} {
		evs := mkEvents(64)
		src := fmt.Sprintf(`proc p write ip i as evt #time(10 s)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(%d, 3)")
alert cluster.outlier && ss.amt > 1000000
return i.dstip`, eps)
		q, err := saql.CompileQuery("eps", src)
		if err != nil {
			panic(err)
		}
		var alerts int
		for _, ev := range evs {
			alerts += len(q.Process(ev, nil))
		}
		alerts += len(q.Flush(nil))
		fmt.Printf("%-24d %10d\n", eps, alerts)
	}
	fmt.Println("shape check: the planted peer is detected across a wide eps range;")
	fmt.Println("an absurdly large eps absorbs it into the cluster (0 windows).")
}

// --- E8 ---------------------------------------------------------------------

func e8() {
	header("E8  Language frontend: parse/compile throughput (interactive CLI)")
	scenario := &saql.AttackScenario{Start: streamStart}
	queries := scenario.DemoQueries(*window, *train)
	const rounds = 2000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		nq := queries[i%len(queries)]
		if err := saql.Validate(nq.SAQL); err != nil {
			panic(err)
		}
	}
	validateRate := float64(rounds) / time.Since(t0).Seconds()
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		nq := queries[i%len(queries)]
		if _, err := saql.CompileQuery(nq.Name, nq.SAQL); err != nil {
			panic(err)
		}
	}
	compileRate := float64(rounds) / time.Since(t0).Seconds()
	fmt.Printf("validate: %8.0f queries/s\n", validateRate)
	fmt.Printf("compile : %8.0f queries/s\n", compileRate)
	fmt.Println("shape check: thousands of queries/s — far beyond interactive needs.")
}
