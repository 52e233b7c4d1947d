package saql

// Tests for the first-class query handle API: lifecycle, pause/resume,
// hot-swap with and without state carry, per-query alert streams, the
// subscription error sentinel, and the declarative Apply layer.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

const groupedSumSrc = `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 100
return p, ss.amt`

// closed reports whether h's query has been retired.
func closed(h *QueryHandle) bool {
	h.eng.mu.Lock()
	defer h.eng.mu.Unlock()
	_, err := h.recLocked()
	return err != nil
}

func writeEvent(at time.Duration, exe string, amount float64) *Event {
	return &Event{
		Time:    demoStart.Add(at),
		AgentID: "h",
		Subject: Process(exe, 7),
		Op:      OpWrite,
		Object:  NetConn("10.0.0.1", 1, "10.0.0.2", 2),
		Amount:  amount,
	}
}

func TestRegisterHandleBasics(t *testing.T) {
	eng := New()
	h, err := eng.Register("sum", groupedSumSrc, WithLabel("pack", "demo"), WithLabel("severity", "high"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "sum" {
		t.Errorf("Name = %q", h.Name())
	}
	if h.Kind() != KindStateful {
		t.Errorf("Kind = %v", h.Kind())
	}
	if h.Placement() != PlaceByGroup {
		t.Errorf("Placement = %v", h.Placement())
	}
	if h.Source() != groupedSumSrc {
		t.Errorf("Source = %q", h.Source())
	}
	if l := h.Labels(); l["pack"] != "demo" || l["severity"] != "high" {
		t.Errorf("Labels = %v", l)
	}
	if h.Paused() || closed(h) {
		t.Error("fresh handle reports paused/closed")
	}
	// Engine lookup returns the same handle.
	if got, ok := eng.Query("sum"); !ok || got != h {
		t.Error("Engine.Query did not return the registered handle")
	}
	if qs := eng.Queries(); len(qs) != 1 || qs[0] != h {
		t.Errorf("Engine.Queries = %v", qs)
	}
	// Duplicate registration fails.
	if _, err := eng.Register("sum", groupedSumSrc); err == nil {
		t.Error("duplicate Register accepted")
	}

	// Close retires the query and frees the name.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if !closed(h) {
		t.Error("handle not closed")
	}
	if err := h.Close(); err != nil {
		t.Errorf("second Close = %v, want nil (idempotent)", err)
	}
	if err := h.Pause(); !errors.Is(err, ErrQueryClosed) {
		t.Errorf("Pause after Close = %v, want ErrQueryClosed", err)
	}
	if err := h.Update(groupedSumSrc); !errors.Is(err, ErrQueryClosed) {
		t.Errorf("Update after Close = %v, want ErrQueryClosed", err)
	}
	if _, err := h.Stats(); !errors.Is(err, ErrQueryClosed) {
		t.Errorf("Stats after Close = %v, want ErrQueryClosed", err)
	}
	// Labels survive Close.
	if l := h.Labels(); l["pack"] != "demo" {
		t.Errorf("Labels after Close = %v", l)
	}
	// Name re-registers under a new handle; the old one stays dead.
	h2, err := eng.Register("sum", groupedSumSrc)
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h {
		t.Error("re-registration reused the closed handle")
	}
	if !closed(h) || closed(h2) {
		t.Error("handle identity confused after re-registration")
	}
}

func TestPauseResumeSerial(t *testing.T) {
	eng := New()
	h, err := eng.Register("big", `proc p write ip i as e
alert e.amount > 10
return p, e.amount`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(eng.Process(writeEvent(0, "a.exe", 100))); n != 1 {
		t.Fatalf("active query raised %d alerts, want 1", n)
	}
	if err := h.Pause(); err != nil {
		t.Fatal(err)
	}
	if !h.Paused() {
		t.Error("Paused() = false after Pause")
	}
	if n := len(eng.Process(writeEvent(time.Second, "a.exe", 100))); n != 0 {
		t.Errorf("paused query raised %d alerts", n)
	}
	if err := h.Pause(); err != nil {
		t.Errorf("idempotent Pause = %v", err)
	}
	if err := h.Resume(); err != nil {
		t.Fatal(err)
	}
	if n := len(eng.Process(writeEvent(2*time.Second, "a.exe", 100))); n != 1 {
		t.Errorf("resumed query raised %d alerts, want 1", n)
	}
	// Stats: the paused event never reached the query.
	st, err := h.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 2 {
		t.Errorf("Events = %d, want 2 (paused event skipped)", st.Events)
	}
}

// Pausing a stateful query freezes its state; Resume continues folding into
// the same windows.
func TestPauseRetainsState(t *testing.T) {
	eng := New()
	h, err := eng.Register("sum", groupedSumSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng.Process(writeEvent(0, "a.exe", 60))
	if err := h.Pause(); err != nil {
		t.Fatal(err)
	}
	eng.Process(writeEvent(time.Second, "a.exe", 1000)) // skipped
	if err := h.Resume(); err != nil {
		t.Fatal(err)
	}
	eng.Process(writeEvent(2*time.Second, "a.exe", 60))
	alerts := eng.Flush()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	// 60 + 60 carried across the pause; the 1000 was never folded.
	if s := alerts[0].String(); !strings.Contains(s, "120") {
		t.Errorf("alert sum = %s, want 120", s)
	}
}

func TestUpdateHotSwapSerial(t *testing.T) {
	eng := New()
	h, err := eng.Register("sum", groupedSumSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng.Process(writeEvent(0, "a.exe", 80))

	// Compile error: old query keeps running untouched.
	if err := h.Update(`garbage`); err == nil {
		t.Fatal("bad Update accepted")
	}
	if h.Source() != groupedSumSrc {
		t.Error("failed Update mutated the source")
	}

	// Fresh-state swap: the 80 is forgotten.
	fresh := strings.Replace(groupedSumSrc, "> 100", "> 150", 1)
	if err := h.Update(fresh); err != nil {
		t.Fatal(err)
	}
	if h.Source() != fresh {
		t.Errorf("Source after Update = %q", h.Source())
	}
	eng.Process(writeEvent(time.Second, "a.exe", 80))
	if alerts := eng.Flush(); len(alerts) != 0 {
		t.Errorf("fresh-state swap kept old sum: %v", alerts)
	}

	// Carry swap: state survives, only the threshold moves.
	eng2 := New()
	h2, err := eng2.Register("sum", groupedSumSrc)
	if err != nil {
		t.Fatal(err)
	}
	eng2.Process(writeEvent(0, "a.exe", 80))
	carried := strings.Replace(groupedSumSrc, "> 100", "> 150", 1)
	if err := h2.Update(carried, CarryWindowState()); err != nil {
		t.Fatal(err)
	}
	eng2.Process(writeEvent(time.Second, "a.exe", 80))
	alerts := eng2.Flush()
	if len(alerts) != 1 {
		t.Fatalf("carried swap lost state: %d alerts, want 1 (sum 160 > 150)", len(alerts))
	}

	// Incompatible carry: window length changed.
	widened := strings.Replace(groupedSumSrc, "#time(1 min)", "#time(2 min)", 1)
	if err := h2.Update(widened, CarryWindowState()); !errors.Is(err, ErrCarryIncompatible) {
		t.Errorf("carry across window change = %v, want ErrCarryIncompatible", err)
	}
	// Without the carry option the same update succeeds with fresh state.
	if err := h2.Update(widened); err != nil {
		t.Errorf("fresh-state update rejected: %v", err)
	}
}

func TestPerQuerySubscription(t *testing.T) {
	eng := New(WithShards(2))
	hBig, err := eng.Register("big", `proc p write ip i as e
alert e.amount > 10
return p, e.amount`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Register("any", `proc p write ip i as e
alert e.amount > 0
return p`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	all := eng.Subscribe(64, Block)
	only := hBig.Subscribe(64, Block)
	var wg sync.WaitGroup
	var allGot, onlyGot []*Alert
	wg.Add(2)
	go func() {
		defer wg.Done()
		for a := range all.C {
			allGot = append(allGot, a)
		}
	}()
	go func() {
		defer wg.Done()
		for a := range only.C {
			onlyGot = append(onlyGot, a)
		}
	}()

	for i := 0; i < 10; i++ {
		amount := 5.0
		if i%2 == 0 {
			amount = 50
		}
		if err := eng.Submit(writeEvent(time.Duration(i)*time.Second, "a.exe", amount)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if len(allGot) != 15 { // 10 from "any" + 5 from "big"
		t.Errorf("engine-wide subscription got %d alerts, want 15", len(allGot))
	}
	if len(onlyGot) != 5 {
		t.Errorf("per-query subscription got %d alerts, want 5", len(onlyGot))
	}
	for _, a := range onlyGot {
		if a.Query != "big" {
			t.Errorf("per-query subscription leaked alert from %q", a.Query)
		}
	}
	if !errors.Is(only.Err(), ErrClosed) {
		t.Errorf("subscription Err after engine close = %v, want ErrClosed", only.Err())
	}
}

// The Subscribe-after-Close bugfix: dead subscriptions must say why.
func TestSubscriptionErrSentinels(t *testing.T) {
	eng := New()
	h, err := eng.Register("q", `proc p read file f return p`)
	if err != nil {
		t.Fatal(err)
	}
	live := eng.Subscribe(1, Block)
	if live.Err() != nil {
		t.Errorf("live subscription Err = %v, want nil", live.Err())
	}
	live.Close()
	if live.Err() != nil {
		t.Errorf("self-closed subscription Err = %v, want nil", live.Err())
	}

	perQuery := h.Subscribe(1, Block)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-perQuery.C; ok {
		t.Error("per-query subscription still open after handle close")
	}
	if !errors.Is(perQuery.Err(), ErrQueryClosed) {
		t.Errorf("per-query Err after handle close = %v, want ErrQueryClosed", perQuery.Err())
	}
	if dead := h.Subscribe(1, Block); !errors.Is(dead.Err(), ErrQueryClosed) {
		t.Errorf("Subscribe on closed handle Err = %v, want ErrQueryClosed", dead.Err())
	}

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	dead := eng.Subscribe(4, Block)
	if _, ok := <-dead.C; ok {
		t.Error("subscription to closed engine delivered an alert")
	}
	if !errors.Is(dead.Err(), ErrClosed) {
		t.Errorf("Subscribe on closed engine Err = %v, want ErrClosed", dead.Err())
	}
}

func TestApplyReconcile(t *testing.T) {
	mk := func(doc string) *QuerySet {
		t.Helper()
		qs, err := ParseQuerySet(doc)
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}
	set1 := mk(`
param threshold = 100
query sum {
  proc p write ip i as e #time(1 min)
  state ss { amt := sum(e.amount) } group by p
  alert ss.amt > $threshold
  return p, ss.amt
}
query big {
  proc p write ip i as e
  alert e.amount > $threshold
  return p, e.amount
}`)

	eng := New(WithShards(2))
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	rep, err := eng.Apply(context.Background(), set1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Added) != 2 || rep.Empty() {
		t.Fatalf("first Apply report = %s", rep)
	}
	hSum, ok := eng.Query("sum")
	if !ok {
		t.Fatal("applied query missing")
	}

	// Re-applying the identical set is a no-op with pointer-identical
	// handles.
	rep, err = eng.Apply(context.Background(), set1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty() || len(rep.Unchanged) != 2 {
		t.Errorf("idempotent Apply report = %s", rep)
	}
	if h, _ := eng.Query("sum"); h != hSum {
		t.Error("unchanged Apply replaced the handle")
	}

	// Changed threshold: hot-swap. Dropped query: retired. New query: added.
	set2 := mk(`
param threshold = 500
query sum {
  proc p write ip i as e #time(1 min)
  state ss { amt := sum(e.amount) } group by p
  alert ss.amt > $threshold
  return p, ss.amt
}
query reads {
  proc p read file f return p, f
}`)
	rep, err = eng.Apply(context.Background(), set2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Updated) != 1 || rep.Updated[0] != "sum" {
		t.Errorf("Updated = %v", rep.Updated)
	}
	if len(rep.Added) != 1 || rep.Added[0] != "reads" {
		t.Errorf("Added = %v", rep.Added)
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != "big" {
		t.Errorf("Removed = %v", rep.Removed)
	}
	if h, _ := eng.Query("sum"); h != hSum {
		t.Error("hot-swap replaced the handle")
	}
	if src := hSum.Source(); !strings.Contains(src, "> 500") {
		t.Errorf("swap did not land: %q", src)
	}
	if _, ok := eng.Query("big"); ok {
		t.Error("retired query still registered")
	}

	// An invalid set aborts with no changes.
	bad := NewQuerySet()
	if err := bad.Add("sum", groupedSumSrc); err != nil {
		t.Fatal(err)
	}
	if err := bad.Add("broken", `proc p read file f return p`); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry after validation to force a compile failure.
	bad.entries[1].src = "not a query"
	before := eng.Queries()
	if _, err := eng.Apply(context.Background(), bad); err == nil {
		t.Fatal("invalid set applied")
	}
	after := eng.Queries()
	if len(before) != len(after) {
		t.Errorf("failed Apply mutated the registry: %d -> %d", len(before), len(after))
	}

	// A failed Apply must not adopt unchanged manual queries either: the
	// invalid set above listed no manual names, so re-check with one that
	// does.
	if _, err := eng.Register("manual-probe", `proc p rename file f return p`); err != nil {
		t.Fatal(err)
	}
	probe := NewQuerySet()
	if err := probe.Add("manual-probe", `proc p rename file f return p`); err != nil {
		t.Fatal(err)
	}
	if err := probe.Add("probe-bad", `proc p read file f return p`); err != nil {
		t.Fatal(err)
	}
	probe.entries[1].src = "still not a query"
	if _, err := eng.Apply(context.Background(), probe); err == nil {
		t.Fatal("invalid probe set applied")
	}
	// Now apply set2 (which omits manual-probe): had the failed Apply
	// adopted it, this would retire it.
	if rep, err := eng.Apply(context.Background(), set2); err != nil {
		t.Fatal(err)
	} else if len(rep.Removed) != 0 {
		t.Errorf("failed Apply adopted a manual query; later Apply retired: %v", rep.Removed)
	}
	if h, _ := eng.Query("manual-probe"); h == nil {
		t.Error("manual query retired after failed Apply adoption")
	} else if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Manually registered queries are not retired by Apply.
	if _, err := eng.Register("manual", `proc p read file f return distinct p`); err != nil {
		t.Fatal(err)
	}
	rep, err = eng.Apply(context.Background(), set2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 0 {
		t.Errorf("Apply retired a manual query: %v", rep.Removed)
	}
	if _, ok := eng.Query("manual"); !ok {
		t.Error("manual query gone")
	}
}

func TestQuerySetHelpers(t *testing.T) {
	qs, err := ParseQueryOrSet("from-file", `proc p read file f return p`)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Len() != 1 || qs.Names()[0] != "from-file" {
		t.Errorf("bare query wrap: %v", qs.Names())
	}
	set, err := ParseQueryOrSet("ignored", `query a { proc p read file f return p }
query b { proc p write file f return p }`)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Errorf("queryset doc: %v", set.Names())
	}
	if err := qs.Merge(set); err != nil {
		t.Fatal(err)
	}
	if qs.Len() != 3 {
		t.Errorf("merged len = %d", qs.Len())
	}
	if err := qs.Merge(set); err == nil {
		t.Error("duplicate merge accepted")
	}
	if src, ok := qs.Source("a"); !ok || !strings.Contains(src, "read file") {
		t.Errorf("Source(a) = %q, %v", src, ok)
	}
	// Semantic errors surface with the query name.
	if _, err := ParseQuerySet(`query bad { proc p read file f return zz }`); err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("semantic error = %v, want named", err)
	}
}

// Update on a running sharded engine: carried state must survive the swap
// at a consistent point even while events are in flight.
func TestUpdateWhileRunningCarriesState(t *testing.T) {
	eng := New(WithShards(3))
	h, err := eng.Register("sum", `proc p write ip i as e #time(1 h)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 1000
return p, ss.amt`)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	var alerts []*Alert
	sub := eng.Subscribe(64, Block)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for a := range sub.C {
			alerts = append(alerts, a)
		}
	}()

	for i := 0; i < 10; i++ {
		if err := eng.Submit(writeEvent(time.Duration(i)*time.Second, "a.exe", 100)); err != nil {
			t.Fatal(err)
		}
	}
	// 1000 accumulated; tighten the threshold mid-stream with carry.
	if err := h.Update(`proc p write ip i as e #time(1 h)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 1500
return p, ss.amt`, CarryWindowState()); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		if err := eng.Submit(writeEvent(time.Duration(i)*time.Second, "a.exe", 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Final sum 2000 > 1500: exactly one alert at flush carrying the full
	// pre-swap prefix.
	if len(alerts) != 1 || !strings.Contains(alerts[0].String(), "2000") {
		t.Errorf("alerts = %v, want one with sum 2000", alerts)
	}
}
