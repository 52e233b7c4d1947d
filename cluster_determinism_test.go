package saql

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestClusterFieldsDeterministic pins cluster.cluster_id and cluster.size to
// the data alone. DBSCAN numbers clusters in input order and gives a border
// point to the earliest-numbered cluster that reaches it, so the engine must
// present a window's groups in one fixed order (ascending group key): fed in
// map-iteration order, the numbering — and, for the point below that borders
// both clusters, the sizes — changed from run to run, between serial and
// sharded engines, and across a restore.
func TestClusterFieldsDeterministic(t *testing.T) {
	const src = `proc p write ip i as evt #time(1 min)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(8, 4)")
alert true
return i.dstip, cluster.cluster_id, cluster.size`

	// Two clusters of per-destination volumes (around 100 and around 124), a
	// destination at 112 within eps of a core point of each, and two
	// outliers. Destination addresses are assigned so that key order differs
	// from value order.
	amounts := []float64{100, 101, 102, 103, 104, 120, 121, 122, 123, 124, 112, 5000, 9000}
	start := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)
	var events []*Event
	for k, amt := range amounts {
		events = append(events, &Event{
			Time:    start.Add(time.Duration(k) * time.Second),
			AgentID: "db-1",
			Subject: Process("sqlservr.exe", 4000),
			Op:      OpWrite,
			Object:  NetConn("10.0.0.2", 1433, fmt.Sprintf("10.9.%d.%d", (k*7)%5, (k*11)%13), 443),
			Amount:  amt,
		})
	}

	serial := func() []string {
		e := New()
		if _, err := e.Register("clusters", src); err != nil {
			t.Fatal(err)
		}
		var alerts []*Alert
		for _, ev := range events {
			alerts = append(alerts, e.Process(ev)...)
		}
		return sortedIdentities(append(alerts, e.Flush()...))
	}
	want := serial()
	if len(want) != len(amounts) {
		t.Fatalf("%d alerts, want one per destination (%d)", len(want), len(amounts))
	}
	ids := map[string]bool{}
	for _, a := range want {
		for _, id := range []string{"cluster_id=0,", "cluster_id=1,", "cluster_id=-1,"} {
			if strings.Contains(a, id) {
				ids[id] = true
			}
		}
	}
	if len(ids) != 3 {
		t.Fatalf("workload must produce two clusters and noise, saw %v in %v", ids, want)
	}
	for run := 1; run < 20; run++ {
		diffAlertSets(t, fmt.Sprintf("serial run %d", run), want, serial())
	}

	var mu sync.Mutex
	var sharded []*Alert
	e := New(WithShards(2), WithAlertHandler(func(a *Alert) {
		mu.Lock()
		sharded = append(sharded, a)
		mu.Unlock()
	}))
	if _, err := e.Register("clusters", src); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	diffAlertSets(t, "2-shard engine", want, sortedIdentities(sharded))
}
