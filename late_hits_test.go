package saql

import (
	"context"
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
