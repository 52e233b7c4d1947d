package saql

// Tests for the multi-tenant control plane: alert budgets (typed
// degradation, window reset, hot raises), ingest-rate quotas, registration
// ceilings, cross-tenant sharing accounting, checkpointed tenant metadata,
// and the conformance guarantee that a noisy tenant's degradation never
// perturbs another tenant's alerts.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// perWriteAlertSrc raises one alert per qualifying write event.
const perWriteAlertSrc = `proc p write ip i as e
alert e.amount > 100
return p, e.amount`

// collectAlerts returns an engine option that appends every delivered alert
// (post budget gate) to the returned slice.
func collectAlerts() (*[]*Alert, Option) {
	var mu sync.Mutex
	alerts := &[]*Alert{}
	return alerts, WithAlertHandler(func(a *Alert) {
		mu.Lock()
		*alerts = append(*alerts, a)
		mu.Unlock()
	})
}

func TestTenantOf(t *testing.T) {
	cases := map[string]string{
		"acme/exfil":   "acme",
		"acme/a/b":     "acme",
		"solo":         "default",
		"/leading":     "default",
		"":             "default",
		"t/":           "t",
		"exfil-volume": "default",
	}
	for name, want := range cases {
		if got := TenantOf(name); got != want {
			t.Errorf("TenantOf(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestAlertBudgetSuppression exhausts a tenant's alert budget mid-window:
// over-budget alerts are suppressed and counted, evaluation continues, and
// the next stream-time window grants a fresh budget.
func TestAlertBudgetSuppression(t *testing.T) {
	got, opt := collectAlerts()
	eng := New(opt)
	defer eng.Close()
	if _, err := eng.Register("acme/writes", perWriteAlertSrc); err != nil {
		t.Fatal(err)
	}
	eng.SetTenantQuotas("acme", TenantQuotas{AlertBudget: 2, AlertWindow: time.Minute})

	// Five qualifying events inside one window: budget admits two.
	for i := 0; i < 5; i++ {
		eng.Process(writeEvent(time.Duration(i)*5*time.Second, "curl", 500))
	}
	if len(*got) != 2 {
		t.Fatalf("delivered = %d, want 2 (budget)", len(*got))
	}
	ts, ok := eng.TenantStats("acme")
	if !ok {
		t.Fatal("tenant acme missing")
	}
	if ts.Alerts != 2 || ts.Suppressed != 3 {
		t.Errorf("alerts = %d suppressed = %d, want 2/3", ts.Alerts, ts.Suppressed)
	}
	degraded := strings.Join(ts.Degraded, ",")
	if !strings.Contains(degraded, "alert_budget") {
		t.Errorf("degraded = %q, want alert_budget", degraded)
	}

	// The per-query recent-alert ring counts only delivered alerts.
	if n := eng.RecentAlerts("acme/writes", time.Hour); n != 2 {
		t.Errorf("RecentAlerts = %d, want 2", n)
	}

	// Next stream-time window: fresh budget.
	eng.Process(writeEvent(2*time.Minute, "curl", 500))
	if len(*got) != 3 {
		t.Errorf("delivered after window roll = %d, want 3", len(*got))
	}
	ts, _ = eng.TenantStats("acme")
	if ts.Suppressed != 3 {
		t.Errorf("suppressed after roll = %d, want 3 (unchanged)", ts.Suppressed)
	}
}

// TestAlertRingIgnoresStaleMinute: an alert more than the ring's span older
// than the minute its bucket holds leaves that bucket alone — it once reset
// it, and RecentAlerts (and the admin alerts_1h field) lost the whole minute.
func TestAlertRingIgnoresStaleMinute(t *testing.T) {
	var r alertRing
	now := demoStart.Add(3 * time.Hour)
	for i := 0; i < 3; i++ {
		r.add(now)
	}
	r.add(now.Add(-ringMinutes * time.Minute))
	if n := r.sum(now, time.Hour); n != 3 {
		t.Fatalf("sum(now, 1h) = %d after a stale alert, want 3", n)
	}
	// A newer minute still takes the bucket over.
	later := now.Add(ringMinutes * time.Minute)
	r.add(later)
	if n := r.sum(later, time.Hour); n != 1 {
		t.Fatalf("sum(later, 1h) = %d, want 1", n)
	}
}

// TestAlertBudgetRaisedHotApply exhausts a budget declared in a queryset
// document, then re-Applies the document with a higher budget: the raise
// takes effect immediately, inside the same accounting window.
func TestAlertBudgetRaisedHotApply(t *testing.T) {
	got, opt := collectAlerts()
	eng := New(opt)
	defer eng.Close()

	doc := func(budget string) string {
		return `tenant acme {
  quota alert_budget = ` + budget + ` / 1 min
  query writes {
    proc p write ip i as e
    alert e.amount > 100
    return p, e.amount
  }
}`
	}
	set, err := ParseQuerySet(doc("1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	if q := eng.TenantQuotas("acme"); q.AlertBudget != 1 || q.AlertWindow != time.Minute {
		t.Fatalf("declared quotas not installed: %+v", q)
	}

	eng.Process(writeEvent(0, "curl", 500))
	eng.Process(writeEvent(5*time.Second, "curl", 500))
	if len(*got) != 1 {
		t.Fatalf("delivered = %d, want 1 (budget 1)", len(*got))
	}

	// Hot raise via Apply; the window's counter is 1, the new budget 5.
	set, err = ParseQuerySet(doc("5"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Apply(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unchanged) != 1 {
		t.Errorf("re-apply report = %s", rep)
	}
	eng.Process(writeEvent(10*time.Second, "curl", 500))
	eng.Process(writeEvent(15*time.Second, "curl", 500))
	if len(*got) != 3 {
		t.Errorf("delivered after raise = %d, want 3", len(*got))
	}
}

// TestTenantMaxQueriesQuota rejects Register and Apply beyond the ceiling
// with a typed *QuotaError.
func TestTenantMaxQueriesQuota(t *testing.T) {
	eng := New()
	defer eng.Close()
	eng.SetTenantQuotas("small", TenantQuotas{MaxQueries: 1})
	if _, err := eng.Register("small/a", perWriteAlertSrc); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Register("small/b", perWriteAlertSrc)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("second Register error = %v, want *QuotaError", err)
	}
	if qe.Tenant != "small" || qe.Quota != "max_queries" || qe.Limit != 1 || qe.Need != 2 {
		t.Errorf("QuotaError = %+v", qe)
	}
	// Other tenants are unaffected.
	if _, err := eng.Register("other/a", perWriteAlertSrc); err != nil {
		t.Fatal(err)
	}

	// Apply validates the reconciled shape: a document declaring more
	// queries than its own quota allows is rejected before any mutation.
	set, err := ParseQuerySet(`tenant packed {
  quota max_queries = 1
  query a { proc p write ip i as e alert e.amount > 100 return p }
  query b { proc p write ip i as e alert e.amount > 200 return p }
}`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Apply(context.Background(), set)
	if !errors.As(err, &qe) {
		t.Fatalf("Apply error = %v, want *QuotaError", err)
	}
	if _, ok := eng.Query("packed/a"); ok {
		t.Error("rejected Apply left a query registered")
	}
}

// TestCrossTenantSharingRatio registers identical queries under two tenants:
// they share one evaluation stream, so each tenant's SharingRatio reports
// the 2x benefit; pausing one collapses the other to 1x.
func TestCrossTenantSharingRatio(t *testing.T) {
	eng := New()
	defer eng.Close()
	for _, name := range []string{"a/sum", "b/sum"} {
		if _, err := eng.Register(name, groupedSumSrc); err != nil {
			t.Fatal(err)
		}
	}
	byName := func() map[string]TenantStats {
		m := map[string]TenantStats{}
		for _, ts := range eng.Tenants() {
			m[ts.Name] = ts
		}
		return m
	}
	m := byName()
	if m["a"].SharingRatio != 2 || m["b"].SharingRatio != 2 {
		t.Errorf("sharing ratios = %v / %v, want 2/2 (one shared stream)", m["a"].SharingRatio, m["b"].SharingRatio)
	}
	if m["a"].Queries != 1 || m["b"].Queries != 1 {
		t.Errorf("query counts = %d / %d", m["a"].Queries, m["b"].Queries)
	}

	h, _ := eng.Query("a/sum")
	if err := h.Pause(); err != nil {
		t.Fatal(err)
	}
	m = byName()
	if m["b"].SharingRatio != 1 {
		t.Errorf("b ratio after pausing a = %v, want 1 (no co-tenant left)", m["b"].SharingRatio)
	}
	if m["a"].SharingRatio != 0 {
		t.Errorf("a ratio with no active queries = %v, want 0", m["a"].SharingRatio)
	}
	if m["a"].Paused != 1 {
		t.Errorf("a paused = %d, want 1", m["a"].Paused)
	}
}

// TestNoisyTenantConformance proves typed degradation is isolation: the
// quiet tenant's alerts are byte-identical between a run alongside a noisy
// over-budget tenant and a run without that tenant at all — even though the
// two tenants' identical queries share one evaluation stream.
func TestNoisyTenantConformance(t *testing.T) {
	events := make([]*Event, 0, 40)
	for i := 0; i < 40; i++ {
		events = append(events, writeEvent(time.Duration(i)*3*time.Second, "curl", 500))
	}
	quietAlerts := func(withNoisy bool) []string {
		got, opt := collectAlerts()
		eng := New(opt)
		defer eng.Close()
		if _, err := eng.Register("quiet/writes", perWriteAlertSrc); err != nil {
			t.Fatal(err)
		}
		if withNoisy {
			if _, err := eng.Register("noisy/writes", perWriteAlertSrc); err != nil {
				t.Fatal(err)
			}
			eng.SetTenantQuotas("noisy", TenantQuotas{AlertBudget: 1, AlertWindow: time.Minute})
		}
		for _, ev := range events {
			eng.Process(ev)
		}
		eng.Flush()
		var out []string
		for _, a := range *got {
			if TenantOf(a.Query) == "quiet" {
				out = append(out, a.String())
			}
		}
		if withNoisy {
			ts, _ := eng.TenantStats("noisy")
			if ts.Suppressed == 0 {
				t.Fatal("noisy tenant was never over budget — test proves nothing")
			}
			if ts.Alerts != 2 {
				t.Errorf("noisy delivered = %d, want 2 (one per window)", ts.Alerts)
			}
		}
		return out
	}

	want := quietAlerts(false)
	got := quietAlerts(true)
	if len(want) == 0 {
		t.Fatal("quiet tenant raised no alerts")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("quiet tenant's alerts changed under a noisy co-tenant:\nwith noisy:\n%s\nwithout:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestIngestRateQuota throttles a tenant-attributed source on stream time:
// excess events are dropped before the engine sees them, and counted — per
// tenant and, summed over tenants, as the engine's Stats.Dropped, which a
// checkpoint carries across Open.
func TestIngestRateQuota(t *testing.T) {
	dir := t.TempDir()
	got, opt := collectAlerts()
	eng, _, err := Open(dir, WithRestoreEngineOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Register("rl/writes", perWriteAlertSrc); err != nil {
		t.Fatal(err)
	}
	eng.SetTenantQuotas("rl", TenantQuotas{IngestRate: 2})

	// Ten qualifying events in the same stream-time second: rate 2/s keeps
	// two. (NDJSON timestamps vary only in sub-second digits.)
	var lines strings.Builder
	for i := 0; i < 10; i++ {
		lines.WriteString(`{"ts":"2020-02-27T09:00:00.` + string(rune('0'+i)) + `00Z","agent":"h","subject":{"type":"proc","exe":"curl","pid":7},"op":"write","object":{"type":"ip","dst_ip":"10.0.0.2","dst_port":2},"amount":500}` + "\n")
	}
	src, err := NewSource(strings.NewReader(lines.String()), WithFormat("ndjson"), WithSourceTenant("rl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Run(context.Background(), eng); err != nil {
		t.Fatal(err)
	}
	dropped := func(stage string, e *Engine) {
		t.Helper()
		var throttled int64
		for _, ts := range e.Tenants() {
			throttled += ts.EventsThrottled
		}
		if d := e.Stats().Dropped; d != 8 || throttled != 8 {
			t.Errorf("%s: Stats.Dropped = %d, tenants throttled %d; want 8 and 8", stage, d, throttled)
		}
	}
	dropped("running", eng)
	if _, err := eng.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	ts, ok := eng.TenantStats("rl")
	if !ok {
		t.Fatal("tenant rl missing")
	}
	if ts.SourceEvents != 2 || ts.EventsThrottled != 8 {
		t.Errorf("accepted = %d throttled = %d, want 2/8", ts.SourceEvents, ts.EventsThrottled)
	}
	if len(*got) != 2 {
		t.Errorf("alerts = %d, want 2 (only admitted events evaluate)", len(*got))
	}
	dropped("closed", eng)

	reopened, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	dropped("reopened", reopened)
}

// TestSourceRunOnce: sources are one-shot so attach/detach pair exactly
// once.
func TestSourceRunOnce(t *testing.T) {
	eng := New()
	defer eng.Close()
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(strings.NewReader(""), WithFormat("ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Run(context.Background(), eng); err != nil {
		t.Fatal(err)
	}
	if err := src.Run(context.Background(), eng); err == nil || !strings.Contains(err.Error(), "one-shot") {
		t.Errorf("second Run error = %v, want one-shot rejection", err)
	}
}

// TestCheckpointRestoresTenantMetadata proves tenant quotas and mid-window
// budget accounting survive a checkpoint/restore: the restored engine keeps
// suppressing inside the same stream-time window instead of granting a
// fresh budget.
func TestCheckpointRestoresTenantMetadata(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(WithJournal(store))
	if _, err := e1.Register("acme/writes", perWriteAlertSrc); err != nil {
		t.Fatal(err)
	}
	e1.SetTenantQuotas("acme", TenantQuotas{AlertBudget: 1, AlertWindow: time.Hour, IngestRate: 99})

	// Exhaust the budget: one delivered, one suppressed.
	e1.Process(writeEvent(0, "curl", 500))
	e1.Process(writeEvent(5*time.Second, "curl", 500))
	ts, _ := e1.TenantStats("acme")
	if ts.Alerts != 1 || ts.Suppressed != 1 {
		t.Fatalf("pre-checkpoint alerts/suppressed = %d/%d, want 1/1", ts.Alerts, ts.Suppressed)
	}
	if _, err := e1.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close.

	got, opt := collectAlerts()
	e2, _, err := Restore(dir, WithoutStart(), WithRestoreEngineOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	q := e2.TenantQuotas("acme")
	if q.AlertBudget != 1 || q.AlertWindow != time.Hour || q.IngestRate != 99 {
		t.Errorf("restored quotas = %+v", q)
	}
	ts, _ = e2.TenantStats("acme")
	if ts.Alerts != 1 || ts.Suppressed != 1 {
		t.Errorf("restored alerts/suppressed = %d/%d, want 1/1", ts.Alerts, ts.Suppressed)
	}
	// Same stream-time window: the budget is still spent.
	e2.Process(writeEvent(10*time.Second, "curl", 500))
	if len(*got) != 0 {
		t.Errorf("restored engine delivered %d alerts inside the exhausted window, want 0", len(*got))
	}
	ts, _ = e2.TenantStats("acme")
	if ts.Suppressed != 2 {
		t.Errorf("restored suppressed = %d, want 2", ts.Suppressed)
	}
}

// fedEngine registers concurrencyQueries under tenant "acme" and feeds events
// through a serial engine (shards 0) or one started at shards.
func fedEngine(t *testing.T, shards int, events []*Event) *Engine {
	t.Helper()
	var opts []Option
	if shards > 0 {
		opts = append(opts, WithShards(shards))
	}
	eng := New(opts...)
	for _, q := range concurrencyQueries {
		if _, err := eng.Register("acme/"+q.name, q.src); err != nil {
			t.Fatal(err)
		}
	}
	if shards == 0 {
		for _, ev := range events {
			eng.Process(ev)
		}
		return eng
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.SubmitBatch(events); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestStateQuotaSameAtEveryShardCount: one stream through a serial engine and
// through engines started at 1, 2 and 8 shards, then an Apply adding a query
// to a tenant whose MaxStateBytes is the serial engine's live state bytes.
// Every engine reads the tenant's footprint as serial does, so every one
// refuses the set one byte below it and admits it at it.
func TestStateQuotaSameAtEveryShardCount(t *testing.T) {
	events := concurrencyWorkload(48, 20)
	serial := fedEngine(t, 0, events)
	live, _ := serial.TenantStats("acme")
	serial.Close()
	if live.StateBytes == 0 {
		t.Fatal("the serial run holds no state")
	}
	set := NewQuerySet()
	if err := set.Add("acme/extra", perWriteAlertSrc); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng := fedEngine(t, shards, events)
			defer eng.Close()
			eng.SetTenantQuotas("acme", TenantQuotas{MaxStateBytes: live.StateBytes - 1})
			var qe *QuotaError
			if _, err := eng.Apply(context.Background(), set); !errors.As(err, &qe) || qe.Need != live.StateBytes {
				t.Fatalf("Apply under a quota of %d bytes = %v, want a *QuotaError needing %d", live.StateBytes-1, err, live.StateBytes)
			}
			eng.SetTenantQuotas("acme", TenantQuotas{MaxStateBytes: live.StateBytes})
			if _, err := eng.Apply(context.Background(), set); err != nil {
				t.Fatalf("Apply under a quota of the serial engine's %d bytes: %v", live.StateBytes, err)
			}
		})
	}
}
