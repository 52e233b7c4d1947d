package saql

// Allocation-regression gate for the ingest path. Broadcasting every event
// to every shard cost ~9 allocations per event (a channel send and hit-set
// copy per shard); partitioned routing with pooled batch slabs must stay at
// or below two allocations per event on a steady-state mixed workload, at
// one shard as at four, and this test fails if it ever creeps back up.

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func TestIngestAllocsPerEventGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full runs")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { ingestAllocsGate(t, shards) })
	}
}

func ingestAllocsGate(t *testing.T, shards int) {
	eng := New(WithShards(shards), WithIngestQueue(64))
	// One by-group stateful query; ~5% of events hit it. Non-matching events
	// must allocate nothing beyond the shared evaluation pass, and matching
	// events pay the fold on exactly one owning shard.
	const src = `proc p write ip i as e #time(1 h)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 1000000000000
return p, ss.amt`
	if err := eng.AddQuery("grouped-sum", src); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const batchSize = 512
	const batches = 4
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	exes := []string{"nginx", "sshd", "postgres", "redis-server"}
	all := make([][]*Event, batches)
	n := 0
	for b := range all {
		evs := make([]*Event, batchSize)
		for i := range evs {
			ev := &Event{
				Time:    base.Add(time.Duration(n) * 13 * time.Millisecond),
				AgentID: "host-1",
				Subject: Process(exes[n%len(exes)], int32(100+n%32)),
				Amount:  float64(n % 1000),
			}
			if n%20 == 0 { // 5% hit the registered query
				ev.Op = OpWrite
				ev.Object = NetConn("", 0, "10.0.0.9", 443)
			} else {
				ev.Op = OpRead
				ev.Object = File("/var/log/syslog")
			}
			evs[i] = ev
			n++
		}
		all[b] = evs
	}

	// Warm up: pool slabs, window state, and the evaluation arena reach
	// steady state before measuring.
	for _, evs := range all {
		if err := eng.SubmitBatch(evs); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := eng.QueryStats("grouped-sum"); !ok {
		t.Fatal("query stats missing after warmup")
	}

	const eventsPerRun = batchSize * batches
	avg := testing.AllocsPerRun(5, func() {
		for _, evs := range all {
			if err := eng.SubmitBatch(evs); err != nil {
				t.Fatal(err)
			}
		}
		// The stats control rides the queue behind every submitted batch, so
		// its round trip is a full processing barrier: every allocation the
		// run causes lands inside the measured window.
		if _, ok := eng.QueryStats("grouped-sum"); !ok {
			t.Fatal("query stats missing")
		}
	})
	perEvent := avg / eventsPerRun
	t.Logf("ingest allocations: %.3f/event (%.0f per %d-event run)", perEvent, avg, eventsPerRun)
	if perEvent > 2 {
		t.Fatalf("ingest allocates %.3f/event, gate is 2/event", perEvent)
	}
	if errs := eng.Errors(); len(errs) != 0 {
		t.Fatalf("runtime reported errors: %v", errs)
	}
}
