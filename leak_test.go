package saql

// Goroutine-hygiene tests: the engine's lifecycle contract is that Close
// joins everything Start spawned — shard workers, the router, the ingest
// queue, subscription fan-out, log sources. internal/leakcheck enforces the
// contract at teardown; the worker/coordinator halves of the same contract
// live in internal/dist's and cmd/saql-worker's tests.

import (
	"context"
	"testing"

	"saql/internal/leakcheck"
)

// TestEngineStartCloseNoLeak pins the plain lifecycle: Start then Close,
// with events and a subscription in between, leaves no goroutines behind.
func TestEngineStartCloseNoLeak(t *testing.T) {
	leakcheck.Check(t)
	eng := New(WithShards(4), WithIngestQueue(16))
	if _, err := eng.Register("big-write", "proc p write ip i as e\nalert e.amount > 1000000\nreturn p, e.amount"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscribe(16, Block)
	go func() {
		for range sub.C {
		}
	}()
	if err := eng.SubmitBatch(concurrencyWorkload(12, 6)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRestartCycleNoLeak pins the repeated-lifecycle case the
// distributed worker depends on: reconfigure is Close-then-Restore in a
// loop, so every cycle must return the process to its baseline.
func TestEngineRestartCycleNoLeak(t *testing.T) {
	leakcheck.Check(t)
	for i := 0; i < 3; i++ {
		eng := New(WithShards(2))
		if err := eng.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := eng.SubmitBatch(concurrencyWorkload(4, 4)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSourceRunNoLeak pins the ingestion-source half: a log source run to
// EOF through a running engine unwinds its reader and batcher goroutines
// once the engine closes.
func TestSourceRunNoLeak(t *testing.T) {
	leakcheck.Check(t)
	eng := New(WithShards(2))
	if _, err := eng.Register("any", `proc p read file f return p, f`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	src, err := OpenLogFile(sampleLogPath, WithFormat("auditd"), WithSourceAgent("db-1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Run(context.Background(), eng); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}
