package saql

import (
	"context"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var demoStart = time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

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
		if err := eng.AddQuery(nq.Name, nq.SAQL); err != nil {
			t.Fatalf("AddQuery(%s): %v", nq.Name, err)
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

	// Every rule query detects its step.
	for _, nq := range queries {
		if nq.Model != "rule" {
			continue
		}
		if len(alertsByQuery[nq.Name]) == 0 {
			t.Errorf("step %s: rule query %q raised no alert", nq.Step, nq.Name)
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
		if err := eng.AddQuery(nq.Name, nq.SAQL); err != nil {
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
	var exfilQuery NamedQuery
	for _, nq := range scenario.DemoQueries(30*time.Second, 5) {
		if nq.Step == StepDataExfiltration {
			exfilQuery = nq
		}
	}
	if err := eng.AddQuery(exfilQuery.Name, exfilQuery.SAQL); err != nil {
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

	shared := New(WithSharing(true))
	unshared := New(WithSharing(false))
	base := NewBaselineEngine()
	for _, nq := range queries {
		if err := shared.AddQuery(nq.Name, nq.SAQL); err != nil {
			t.Fatal(err)
		}
		if err := unshared.AddQuery(nq.Name, nq.SAQL); err != nil {
			t.Fatal(err)
		}
		cq, err := CompileQuery(nq.Name, nq.SAQL)
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
		t.Errorf("alert counts diverge: shared=%d unshared=%d baseline=%d", nShared, nUnshared, nBase)
	}
	if nShared == 0 {
		t.Error("expected alerts from the demo scenario")
	}

	// Sharing must reduce stream copies relative to the naive count.
	st := shared.Stats()
	if st.StreamCopies >= st.NaiveCopies {
		t.Errorf("sharing produced no copy reduction: %d vs %d", st.StreamCopies, st.NaiveCopies)
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
	if err := eng.AddQuery("a", `proc p start proc q as e return p`); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery("a", `proc p start proc q as e return p`); err == nil {
		t.Error("duplicate name accepted")
	}
	if k, ok := eng.QueryKind("a"); !ok || k != KindRule {
		t.Errorf("QueryKind = %v, %v", k, ok)
	}
	if !eng.RemoveQuery("a") {
		t.Error("RemoveQuery failed")
	}
	if eng.RemoveQuery("a") {
		t.Error("double remove succeeded")
	}
	if _, ok := eng.QueryStats("a"); ok {
		t.Error("stats for removed query")
	}
}

func TestAlertHandlerOption(t *testing.T) {
	var got []*Alert
	eng := New(WithAlertHandler(func(a *Alert) { got = append(got, a) }))
	if err := eng.AddQuery("starts", `proc p["%cmd.exe"] start proc q as e return p, q`); err != nil {
		t.Fatal(err)
	}
	ev := &Event{Time: demoStart, AgentID: "h", Subject: Process("cmd.exe", 1), Op: OpStart, Object: Process("osql.exe", 2)}
	ret := eng.Process(ev)
	if len(ret) != 1 || len(got) != 1 {
		t.Errorf("returned=%d callback=%d, want 1/1", len(ret), len(got))
	}
}
