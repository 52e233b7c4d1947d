package saql

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"saql/internal/attack"
	"saql/internal/baseline"
	"saql/internal/engine"
	"saql/internal/scheduler"
)

var demoStart = time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

// compileQuery compiles a query for standalone Process/Flush calls, outside
// any engine.
func compileQuery(name, src string) (*engine.Query, error) {
	return engine.Compile(name, src, engine.CompileOptions{})
}

// soloScheduler registers q alone on an unshared scheduler of its own — the
// serial fold a never-started engine runs — reporting runtime errors to
// reporter (nil: none).
func soloScheduler(tb testing.TB, q *engine.Query, reporter *engine.ErrorReporter) *scheduler.Scheduler {
	tb.Helper()
	s := scheduler.New(reporter, false)
	if err := s.Add(q); err != nil {
		tb.Fatal(err)
	}
	return s
}

// buildDemoStream mixes deterministic background activity from five hosts
// with the APT kill chain, returning the time-ordered stream and scenario.
func buildDemoStream(t testing.TB, duration time.Duration, attackAt time.Duration) ([]*Event, *AttackScenario) {
	t.Helper()
	wl, err := NewWorkload(WorkloadConfig{
		Hosts: []Host{
			{AgentID: "ws-victim", Kind: Workstation},
			{AgentID: "ws-2", Kind: Workstation},
			{AgentID: "mail-1", Kind: MailServer},
			{AgentID: "web-1", Kind: WebServer},
			{AgentID: "db-1", Kind: DBServer},
		},
		Start:    demoStart,
		Duration: duration,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	background := wl.Drain()

	scenario := &AttackScenario{
		Workstation: "ws-victim",
		MailServer:  "mail-1",
		DBServer:    "db-1",
		AttackerIP:  "172.16.0.129",
		Start:       demoStart.Add(attackAt),
	}
	attackEvents := AttackEventsOnly(scenario.Events())

	all := append(background, attackEvents...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time.Before(all[j].Time) })
	return all, scenario
}

// TestKillChainDetection is the paper's demonstration as a test: all 8 SAQL
// queries run concurrently over the mixed stream; every attack step must be
// detected by its rule query, and the three advanced anomaly queries must
// catch c2 (invariant) and c5 (time-series + outlier) with no knowledge of
// the attack.
func TestKillChainDetection(t *testing.T) {
	events, scenario := buildDemoStream(t, 30*time.Minute, 12*time.Minute)
	queries := scenario.DemoQueries(30*time.Second, 5)
	if len(queries) != 8 {
		t.Fatalf("demo queries = %d, want 8", len(queries))
	}

	eng := New()
	for _, nq := range queries {
		if _, err := eng.Register(nq.Name, nq.SAQL); err != nil {
			t.Fatalf("Register(%s): %v", nq.Name, err)
		}
	}

	alertsByQuery := map[string][]*Alert{}
	for _, ev := range events {
		for _, a := range eng.Process(ev) {
			alertsByQuery[a.Query] = append(alertsByQuery[a.Query], a)
		}
	}
	for _, a := range eng.Flush() {
		alertsByQuery[a.Query] = append(alertsByQuery[a.Query], a)
	}

	// Every rule query detects its step exactly once, at most one window
	// (30 s) of event time after the step's first labelled event: the paper's
	// Figure 3 timeline (experiments E1/E2).
	stepStart := map[attack.Step]time.Time{}
	for _, l := range scenario.Events() {
		if _, ok := stepStart[l.Step]; !ok {
			stepStart[l.Step] = l.Event.Time
		}
	}
	for _, nq := range queries {
		if nq.Model != "rule" {
			continue
		}
		alerts := alertsByQuery[nq.Name]
		if len(alerts) != 1 {
			t.Errorf("step %s: rule query %q raised %d alerts, want 1", nq.Step, nq.Name, len(alerts))
			continue
		}
		if delay := alerts[0].EventTime.Sub(stepStart[nq.Step]); delay < 0 || delay > 30*time.Second {
			t.Errorf("step %s: rule query %q detected it %v after its first event, want within 30s", nq.Step, nq.Name, delay)
		}
	}

	// Invariant query catches Excel's unseen child (wscript.exe).
	invAlerts := alertsByQuery["anomaly-invariant-office-children"]
	if len(invAlerts) == 0 {
		t.Error("invariant query raised no alert for Excel's unseen child process")
	} else {
		found := false
		for _, a := range invAlerts {
			for _, nv := range a.Values {
				if nv.Val.SetContains("wscript.exe") {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("invariant alerts do not name wscript.exe: %v", invAlerts[0])
		}
	}

	// Time-series query catches the abnormal network volume on db-1.
	if len(alertsByQuery["anomaly-timeseries-db-network"]) == 0 {
		t.Error("time-series query raised no alert for the exfiltration volume")
	}

	// Outlier query identifies the attacker IP as the odd peer.
	outAlerts := alertsByQuery["anomaly-outlier-db-peers"]
	if len(outAlerts) == 0 {
		t.Error("outlier query raised no alert")
	} else {
		found := false
		for _, a := range outAlerts {
			for _, nv := range a.Values {
				if nv.Val.String() == scenario.AttackerIP {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("outlier alerts do not name the attacker IP: %v", outAlerts[0])
		}
	}

	// The scheduler shared the stream: fewer copies than queries×events.
	st := eng.Stats()
	if st.Queries != 8 {
		t.Errorf("queries = %d", st.Queries)
	}
	if st.SharingRatio < 1 {
		t.Errorf("sharing ratio = %.2f, want >= 1", st.SharingRatio)
	}
}

// TestRuleQueriesPrecision verifies the rule queries stay silent on a purely
// benign stream (no false positives on background noise).
func TestRuleQueriesPrecision(t *testing.T) {
	wl, err := NewWorkload(WorkloadConfig{
		Hosts: []Host{
			{AgentID: "ws-victim", Kind: Workstation},
			{AgentID: "db-1", Kind: DBServer},
			{AgentID: "web-1", Kind: WebServer},
		},
		Start:    demoStart,
		Duration: 20 * time.Minute,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	scenario := &AttackScenario{Workstation: "ws-victim", DBServer: "db-1", Start: demoStart}
	eng := New()
	for _, nq := range scenario.DemoQueries(30*time.Second, 5) {
		if nq.Model != "rule" {
			continue
		}
		if _, err := eng.Register(nq.Name, nq.SAQL); err != nil {
			t.Fatal(err)
		}
	}
	var total int
	for {
		ev, ok := wl.Next()
		if !ok {
			break
		}
		total += len(eng.Process(ev))
	}
	total += len(eng.Flush())
	if total != 0 {
		t.Errorf("rule queries raised %d alerts on benign traffic, want 0", total)
	}
}

// TestStoreReplayDetection exercises the paper's replay workflow: collect
// the mixed stream into the store, then replay the db-server data at
// maximum speed into an engine running the exfiltration query.
func TestStoreReplayDetection(t *testing.T) {
	events, scenario := buildDemoStream(t, 20*time.Minute, 8*time.Minute)

	dir := filepath.Join(t.TempDir(), "store")
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AppendAll(events); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-open and replay only db-1, as the web UI's host selection would.
	store2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var alerts []*Alert
	eng := New(WithAlertHandler(func(a *Alert) { alerts = append(alerts, a) }))
	var exfilQuery attack.NamedQuery
	for _, nq := range scenario.DemoQueries(30*time.Second, 5) {
		if nq.Step == attack.StepDataExfiltration {
			exfilQuery = nq
		}
	}
	if _, err := eng.Register(exfilQuery.Name, exfilQuery.SAQL); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	src := NewReplaySource(NewReplayer(store2), ReplayOptions{
		Hosts: []string{"db-1"},
		Speed: 0, // max speed
	})
	if err := src.Run(context.Background(), eng); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if src.Stats().Events == 0 {
		t.Fatal("replay delivered no events")
	}
	if len(alerts) == 0 {
		t.Error("replayed stream did not trigger the exfiltration query")
	}
	for _, a := range alerts {
		if !strings.Contains(a.String(), "172.16.0.129") {
			t.Errorf("alert missing attacker IP: %s", a)
		}
	}
}

// TestSharingVsBaselineAgreement runs the same queries through the shared
// scheduler, the unshared scheduler, and the generic-CEP baseline, and
// requires identical alert counts: sharing must be a pure optimisation.
func TestSharingVsBaselineAgreement(t *testing.T) {
	events, scenario := buildDemoStream(t, 15*time.Minute, 6*time.Minute)
	queries := scenario.DemoQueries(30*time.Second, 5)
	// Add semantically compatible variants (same patterns, different
	// thresholds) so the master–dependent scheme has sharing to exploit —
	// the situation the paper describes for concurrent analyst queries.
	outlier := queries[7]
	variant := outlier
	variant.Name = outlier.Name + "-strict"
	variant.SAQL = strings.Replace(outlier.SAQL, "ss.amt > 10000000", "ss.amt > 40000000", 1)
	queries = append(queries, variant)
	ts := queries[6]
	tsVariant := ts
	tsVariant.Name = ts.Name + "-strict"
	tsVariant.SAQL = strings.Replace(ts.SAQL, "> 1000000)", "> 8000000)", 1)
	queries = append(queries, tsVariant)

	nShared, st := runSharedUnsharedBaseline(t, queries, events)
	if nShared == 0 {
		t.Error("expected alerts from the demo scenario")
	}
	// Sharing must reduce stream copies relative to the naive count.
	if st.StreamCopies >= st.NaiveCopies {
		t.Errorf("sharing produced no copy reduction: %d vs %d", st.StreamCopies, st.NaiveCopies)
	}
}

// TestConcurrentQueriesShareOneCopy is experiment E3's shape: however many
// compatible time-series variants run, the shared scheduler takes one copy
// of the stream per event and shares it n ways (the baseline pays n copies),
// and the alerts are the unshared and the baseline engines' alerts.
func TestConcurrentQueriesShareOneCopy(t *testing.T) {
	events, scenario := buildDemoStream(t, 10*time.Minute, 3*time.Minute)
	for _, n := range []int{1, 4, 16, 64} {
		alerts, st := runSharedUnsharedBaseline(t, e3Queries(scenario, n), events)
		if alerts != n {
			t.Errorf("queries=%d: %d alerts, want one per variant", n, alerts)
		}
		if st.StreamCopies != st.Events {
			t.Errorf("queries=%d: %d stream copies for %d events, want one per event", n, st.StreamCopies, st.Events)
		}
		if st.SharingRatio != float64(n) {
			t.Errorf("queries=%d: sharing ratio %v, want %d", n, st.SharingRatio, n)
		}
	}
}

// runSharedUnsharedBaseline runs queries over events through the shared
// scheduler, the unshared scheduler and the generic-CEP baseline, requires
// identical alert counts — sharing must be a pure optimisation — and returns
// the count and the shared engine's stats.
func runSharedUnsharedBaseline(t *testing.T, queries []attack.NamedQuery, events []*Event) (int, Stats) {
	t.Helper()
	shared := New(WithSharing(true))
	unshared := New(WithSharing(false))
	base := baseline.New(nil)
	for _, nq := range queries {
		if _, err := shared.Register(nq.Name, nq.SAQL); err != nil {
			t.Fatal(err)
		}
		if _, err := unshared.Register(nq.Name, nq.SAQL); err != nil {
			t.Fatal(err)
		}
		cq, err := compileQuery(nq.Name, nq.SAQL)
		if err != nil {
			t.Fatal(err)
		}
		base.Add(cq)
	}
	var nShared, nUnshared, nBase int
	for _, ev := range events {
		nShared += len(shared.Process(ev))
		nUnshared += len(unshared.Process(ev))
		nBase += len(base.Process(ev))
	}
	nShared += len(shared.Flush())
	nUnshared += len(unshared.Flush())
	nBase += len(base.Flush())
	if nShared != nUnshared || nShared != nBase {
		t.Errorf("%d queries: alert counts diverge: shared=%d unshared=%d baseline=%d", len(queries), nShared, nUnshared, nBase)
	}
	return nShared, shared.Stats()
}

// outlierWindows is experiment E7's stream: 32 ten-second windows in each of
// which sqlservr writes once to each of groups destinations — about 50 kB to
// every peer but the last, the exfiltration peer, which takes 50 MB.
func outlierWindows(groups int) []*Event {
	var out []*Event
	for w := 0; w < 32; w++ {
		at := demoStart.Add(time.Duration(w) * 10 * time.Second)
		for g := 0; g < groups; g++ {
			amt := 50000 + float64(g%7)*300
			if g == groups-1 {
				amt = 5e7
			}
			out = append(out, &Event{
				Time:    at.Add(time.Duration(g) * time.Millisecond),
				AgentID: "db-1",
				Subject: Process("sqlservr.exe", 1680),
				Op:      OpWrite,
				Object:  NetConn("10.0.0.2", 1433, fmt.Sprintf("10.0.%d.%d", g/250, g%250), 49000),
				Amount:  amt,
			})
		}
	}
	return out
}

// outlierQuery clusters each window's per-destination volumes with method
// and alerts on a large outlier.
func outlierQuery(method string) string {
	return fmt.Sprintf(`proc p write ip i as evt #time(10 s)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method=%q)
alert cluster.outlier && ss.amt > 1000000
return i.dstip, ss.amt`, method)
}

// TestOutlierEpsSensitivity is experiment E7's shape: DBSCAN flags the
// planted peer in every window at every peer-group size, KMEANS (no notion
// of an outlier) in none, and DBSCAN's eps can range over three orders of
// magnitude before it is so large that the peer joins the cluster.
func TestOutlierEpsSensitivity(t *testing.T) {
	flagged := func(method string, groups int) int {
		q, err := compileQuery("clu", outlierQuery(method))
		if err != nil {
			t.Fatal(err)
		}
		s, n := soloScheduler(t, q, nil), 0
		for _, ev := range outlierWindows(groups) {
			n += len(s.Process(ev))
		}
		return n + len(s.Flush())
	}
	for _, groups := range []int{16, 64, 256, 1024} {
		if n := flagged("DBSCAN(100000, 3)", groups); n != 32 {
			t.Errorf("DBSCAN(100000, 3), %d groups: peer flagged in %d of 32 windows, want 32", groups, n)
		}
		if n := flagged("KMEANS(3)", groups); n != 0 {
			t.Errorf("KMEANS(3), %d groups: peer flagged in %d of 32 windows, want 0", groups, n)
		}
	}
	for _, c := range []struct{ eps, want int }{{1e3, 32}, {1e4, 32}, {1e5, 32}, {1e6, 32}, {1e8, 0}} {
		method := fmt.Sprintf("DBSCAN(%d, 3)", c.eps)
		if n := flagged(method, 64); n != c.want {
			t.Errorf("%s, 64 groups: peer flagged in %d of 32 windows, want %d", method, n, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(`proc p start proc q as e return p`); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := Validate(`proc p start proc q as e return zz`); err == nil {
		t.Error("invalid query accepted")
	}
	if err := Validate(`not a query`); err == nil {
		t.Error("garbage accepted")
	}
}

func TestEngineManagement(t *testing.T) {
	eng := New()
	h, err := eng.Register("a", `proc p start proc q as e return p`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Register("a", `proc p start proc q as e return p`); err == nil {
		t.Error("duplicate name accepted")
	}
	if k := h.Kind(); k != KindRule {
		t.Errorf("Kind = %v", k)
	}
	if err := h.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, ok := eng.Query("a"); ok {
		t.Error("closed query still registered")
	}
	if _, ok := eng.QueryStats("a"); ok {
		t.Error("stats for removed query")
	}
}

func TestAlertHandlerOption(t *testing.T) {
	var got []*Alert
	eng := New(WithAlertHandler(func(a *Alert) { got = append(got, a) }))
	if _, err := eng.Register("starts", `proc p["%cmd.exe"] start proc q as e return p, q`); err != nil {
		t.Fatal(err)
	}
	ev := &Event{Time: demoStart, AgentID: "h", Subject: Process("cmd.exe", 1), Op: OpStart, Object: Process("osql.exe", 2)}
	ret := eng.Process(ev)
	if len(ret) != 1 || len(got) != 1 {
		t.Errorf("returned=%d callback=%d, want 1/1", len(ret), len(got))
	}
}
