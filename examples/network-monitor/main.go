// Network monitor: continuous monitoring of per-process network volume on a
// database server, in the style of the paper's Queries 2 and 4.
//
// Two stateful anomaly queries run side by side over the same stream (and
// are scheduled in one master–dependent group because their event patterns
// are compatible):
//
//   - a time-series query computing a 3-window simple moving average of
//     per-process network writes and alerting on spikes, and
//   - an outlier query peer-comparing per-destination transfer volumes
//     with DBSCAN.
//
// The example also cross-checks the SAQL SMA alert against the same rule
// computed by hand over the per-window means it collects, to show the query
// is the model.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"saql"
)

const windowLen = time.Minute

const smaQuery = `
agentid = "db-1"
proc p write ip i as evt #time(1 min)
state[3] ss {
  avg_amount := avg(evt.amount)
} group by p
alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 100000)
return p, ss[0].avg_amount, ss[1].avg_amount, ss[2].avg_amount
`

const outlierQuery = `
agentid = "db-1"
proc p write ip i as evt #time(1 min)
state ss {
  amt := sum(evt.amount)
} group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(500000, 3)")
alert cluster.outlier && ss.amt > 5000000
return i.dstip, ss.amt
`

func main() {
	eng := saql.New(saql.WithShards(2))
	if _, err := eng.Register("net-sma", smaQuery); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.Register("net-outlier", outlierQuery); err != nil {
		log.Fatal(err)
	}
	// The SMA query partitions its per-process state across shards; the
	// outlier query needs all peer groups of a window in one place, so the
	// runtime pins it to a single shard.
	for _, name := range []string{"net-sma", "net-outlier"} {
		p, _ := eng.QueryPlacement(name)
		fmt.Printf("%-12s placement=%s\n", name, p)
	}
	if err := eng.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	sub := eng.Subscribe(64, saql.Block)
	printed := make(chan struct{})
	go func() {
		defer close(printed)
		for a := range sub.C {
			fmt.Printf("%-11s %s\n", "["+a.Kind.String()+"]", a)
		}
	}()
	fmt.Println()

	// Synthetic DB-server traffic: sqlservr answers 8 client IPs steadily;
	// in minute 7, a compromised helper process bursts 80 MB to one
	// external address.
	start := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)
	sql := saql.Process("sqlservr.exe", 1680)
	helper := saql.Process("sqlagent.exe", 1702)
	submit := func(ev *saql.Event) {
		if err := eng.Submit(ev); err != nil {
			log.Fatal(err)
		}
	}

	var perWindowAvg []float64 // sqlservr's per-window mean, for the cross-check
	for minute := 0; minute < 12; minute++ {
		at := start.Add(time.Duration(minute) * windowLen)
		var winSum float64
		var winN int
		for c := 0; c < 8; c++ {
			amt := 40000 + float64(c)*1000 + float64(minute)*500
			conn := saql.NetConn("10.0.3.10", 1433, fmt.Sprintf("10.0.1.%d", 20+c), 49000)
			submit(&saql.Event{
				Time: at.Add(time.Duration(c*6) * time.Second), AgentID: "db-1",
				Subject: sql, Op: saql.OpWrite, Object: conn, Amount: amt,
			})
			winSum += amt
			winN++
		}
		perWindowAvg = append(perWindowAvg, winSum/float64(winN))
		if minute == 7 {
			exfil := saql.NetConn("10.0.3.10", 1433, "203.0.113.77", 8443)
			for chunk := 0; chunk < 8; chunk++ {
				submit(&saql.Event{
					Time: at.Add(50*time.Second + time.Duration(chunk)*time.Second), AgentID: "db-1",
					Subject: helper, Op: saql.OpWrite, Object: exfil, Amount: 10 << 20,
				})
			}
		}
	}
	// Close drains, flushes the final windows, and ends the subscription.
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	<-printed

	// Cross-check: the SMA query's rule applied by hand to sqlservr's series
	// — a window is anomalous when its mean exceeds the mean of the last
	// three windows, itself included, and exceeds 100000 — must stay silent,
	// exactly as the SAQL query did for that process.
	var smaAlerts int
	for i := 2; i < len(perWindowAvg); i++ {
		x := perWindowAvg[i]
		sma := (x + perWindowAvg[i-1] + perWindowAvg[i-2]) / 3
		if x > sma && x > 100000 {
			smaAlerts++
		}
	}
	fmt.Printf("\ncross-check: the 3-window SMA rule over sqlservr's series raised %d alerts "+
		"(the SAQL query raised alerts only for the bursting helper process)\n", smaAlerts)
}
