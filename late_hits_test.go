package saql

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestLateHitsCounted: hits that arrive after their window closed fold into
// nothing. They used to vanish without a trace — eval_errors 0, no counter —
// and must show as QueryStats.LateHits on the serial engine, summed across
// the replicas of a sharded one, and again after a checkpoint and restore.
func TestLateHitsCounted(t *testing.T) {
	const src = `proc p write ip i as evt #time(10 s)
state ss { amt := sum(evt.amount) } group by p
alert ss.amt > 1000000
return p, ss.amt`
	at := func(sec int, exe string) *Event {
		return &Event{
			Time:    demoStart.Add(time.Duration(sec) * time.Second),
			AgentID: "db-1",
			Subject: Process(exe, 7),
			Op:      OpWrite,
			Object:  NetConn("10.0.0.2", 1433, "10.1.0.1", 443),
			Amount:  10,
		}
	}
	// Two in-order events, a jump that closes the first two windows, then
	// three stragglers for the first window (two groups, so on two shards
	// more than one replica counts).
	events := []*Event{
		at(1, "a.exe"), at(2, "b.exe"), at(25, "a.exe"),
		at(3, "a.exe"), at(4, "b.exe"), at(5, "c.exe"),
	}
	check := func(label string, st QueryStats, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s: query stats missing", label)
		}
		if st.LateHits != 3 || st.PatternHits != 6 || st.EvalErrors != 0 {
			t.Errorf("%s: LateHits %d PatternHits %d EvalErrors %d, want 3, 6, 0", label, st.LateHits, st.PatternHits, st.EvalErrors)
		}
	}

	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serial := New(WithJournal(store))
	if _, err := serial.Register("sum", src); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		serial.Process(ev)
	}
	st, ok := serial.QueryStats("sum")
	check("serial", st, ok)
	if _, err := serial.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	restored, _, err := Restore(dir, WithoutStart())
	if err != nil {
		t.Fatal(err)
	}
	st, ok = restored.QueryStats("sum")
	check("restored", st, ok)

	sharded := New(WithShards(2))
	if _, err := sharded.Register("sum", src); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sharded.SubmitBatch(events); err != nil {
		t.Fatal(err)
	}
	st, ok = sharded.QueryStats("sum")
	check("2 shards, running", st, ok)
	if err := sharded.Close(); err != nil {
		t.Fatal(err)
	}
	st, ok = sharded.QueryStats("sum")
	check("2 shards, closed", st, ok)
}

// TestPartialLossesCounted: a multievent query loses partial matches two
// ways — a first step whose chain does not complete within the window
// expires, and one arriving while 4,096 partials are live is refused — and
// both losses must show in QueryStats and the tenant's TenantStats at every
// shard count and after a checkpoint and Open.
func TestPartialLossesCounted(t *testing.T) {
	const src = `proc p start proc c as e1 #time(1 min)
proc c write file f as e2
with e1 -> e2
return p, c, f`
	const firsts = 5000 // past the 4,096-partial cap
	start := func(at time.Duration, k int) *Event {
		return &Event{
			Time:    demoStart.Add(at),
			AgentID: "ws-1",
			Subject: Process("explorer.exe", 7),
			Op:      OpStart,
			Object:  Process("child.exe", int32(1000+k)),
		}
	}
	var events []*Event
	for k := range firsts {
		events = append(events, start(time.Duration(k)*time.Millisecond, k))
	}
	// Two minutes on, every live partial is past the window.
	events = append(events, start(2*time.Minute, firsts))
	const wantExpired, wantDropped = 4096, firsts - 4096
	check := func(label string, eng *Engine) {
		t.Helper()
		st, ok := eng.QueryStats("chain")
		if !ok {
			t.Fatalf("%s: query stats missing", label)
		}
		if st.PartialsExpired != wantExpired || st.PartialsDropped != wantDropped || st.Matches != 0 {
			t.Errorf("%s: PartialsExpired %d PartialsDropped %d Matches %d, want %d, %d, 0",
				label, st.PartialsExpired, st.PartialsDropped, st.Matches, wantExpired, wantDropped)
		}
		ts, ok := eng.TenantStats(DefaultTenant)
		if !ok || ts.PartialsExpired != wantExpired || ts.PartialsDropped != wantDropped {
			t.Errorf("%s: tenant PartialsExpired %d PartialsDropped %d (found %v), want %d, %d",
				label, ts.PartialsExpired, ts.PartialsDropped, ok, wantExpired, wantDropped)
		}
	}

	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serial := New(WithJournal(store))
	if _, err := serial.Register("chain", src); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		serial.Process(ev)
	}
	check("serial", serial)
	if _, err := serial.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	opened, _, err := Open(dir, WithoutStart())
	if err != nil {
		t.Fatal(err)
	}
	check("opened", opened)

	for _, shards := range []int{1, 2, 8} {
		eng := New(WithShards(shards))
		if _, err := eng.Register("chain", src); err != nil {
			t.Fatal(err)
		}
		if err := eng.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := eng.SubmitBatch(events); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%d shards", shards), eng)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
