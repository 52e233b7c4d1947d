package saql

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestIdleWatermarkClosesWindow holds a started engine to telling a shard that
// time has passed when no event reaches it: an event folds group k and is
// handed to k's shard, then an event past the window's end that no query
// matches goes in. Nothing routes to any shard for the second event, so only
// the watermark-only batch the router sends once its queue goes idle
// (partitioner.flushAll) closes k's window, and k's alert must reach a
// subscriber on its own — before any Flush, Close or control call.
func TestIdleWatermarkClosesWindow(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng := New(WithShards(shards))
			defer eng.Close()
			if _, err := eng.Register("count", `proc p write ip i as e #time(10 s)
state ss { n := count(e) } group by p
alert ss.n > 0
return p, ss.n`); err != nil {
				t.Fatal(err)
			}
			sub := eng.Subscribe(4, Block)
			if err := eng.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			fold := &Event{Time: demoStart.Add(time.Second), AgentID: "host-1", Subject: Process("k.exe", 7),
				Op: OpWrite, Object: NetConn("10.0.0.2", 1433, "10.1.0.9", 443), Amount: 100}
			past := &Event{Time: demoStart.Add(15 * time.Second), AgentID: "host-1", Subject: Process("other.exe", 8),
				Op: OpRead, Object: File("/var/log/other.log")}
			if err := eng.Submit(fold); err != nil {
				t.Fatal(err)
			}
			// Wait until the router has evaluated the first event, and give
			// it a moment to go idle and hand the event's batch to its shard:
			// routed together, the two would share a batch whose watermark
			// closes the window anyway. Stats reads counters; it sends the
			// shards nothing.
			for deadline := time.Now().Add(5 * time.Second); eng.Stats().PatternEvals == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the router did not evaluate the first event within 5 s")
				}
			}
			time.Sleep(20 * time.Millisecond)
			if err := eng.Submit(past); err != nil {
				t.Fatal(err)
			}
			select {
			case al, ok := <-sub.C:
				if !ok {
					t.Fatal("the subscription closed before an alert")
				}
				if al.Query != "count" || al.GroupKey != "k.exe" || !al.EventTime.Equal(demoStart.Add(10*time.Second)) {
					t.Fatalf("alert %s, want count's for group k.exe at the end of the first window", al)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no alert within 5 s: the shard that owns k never heard that its window ended")
			}
		})
	}
}
