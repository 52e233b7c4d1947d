package saql_test

import (
	"context"
	"fmt"
	"time"

	"saql"
)

// The concurrent ingestion API: Start the sharded runtime, submit a batch,
// and receive alerts through a subscription. Close drains the queue,
// flushes open windows, and ends the subscription.
func ExampleEngine_Subscribe() {
	eng := saql.New(saql.WithShards(2))
	_, err := eng.Register("dump-read", `
proc p1["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt1
proc p2 read file f1 as evt2
with evt1 -> evt2
return p1, f1, p2`)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := eng.Start(context.Background()); err != nil {
		fmt.Println(err)
		return
	}
	sub := eng.Subscribe(16, saql.Block)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for alert := range sub.C {
			fmt.Println(alert)
		}
	}()

	t0 := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)
	err = eng.SubmitBatch([]*saql.Event{
		{Time: t0, AgentID: "db-1", Subject: saql.Process("sqlservr.exe", 1680),
			Op: saql.OpWrite, Object: saql.File(`C:\db\backup1.dmp`), Amount: 5e7},
		{Time: t0.Add(time.Second), AgentID: "db-1", Subject: saql.Process("sbblv.exe", 3112),
			Op: saql.OpRead, Object: saql.File(`C:\db\backup1.dmp`), Amount: 5e7},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := eng.Close(); err != nil {
		fmt.Println(err)
		return
	}
	<-done
	// Output:
	// ALERT [rule] query=dump-read at=09:00:01.000 p1=sqlservr.exe f1=C:\db\backup1.dmp p2=sbblv.exe
}

// The query-handle lifecycle: Register returns the handle, Pause/Resume
// gate the query's event flow with state retained, and Update hot-swaps
// the source in place at a consistent point of the stream.
func ExampleEngine_Register() {
	eng := saql.New()
	h, err := eng.Register("big-write", `
proc p write ip i as e
alert e.amount > 1000000
return p, e.amount`,
		saql.WithLabel("severity", "high"))
	if err != nil {
		fmt.Println(err)
		return
	}

	t0 := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)
	submit := func(sec int, amount float64) {
		for _, a := range eng.Process(&saql.Event{
			Time: t0.Add(time.Duration(sec) * time.Second), AgentID: "db-1",
			Subject: saql.Process("sqlservr.exe", 1680), Op: saql.OpWrite,
			Object: saql.NetConn("10.0.3.10", 1433, "203.0.113.77", 8443), Amount: amount,
		}) {
			fmt.Println(a)
		}
	}

	submit(0, 5e6) // alerts
	_ = h.Pause()
	submit(1, 5e6) // skipped: the query is paused
	_ = h.Resume()
	_ = h.Update(`
proc p write ip i as e
alert e.amount > 10
return p, e.amount`) // live tuning: tighten the threshold
	submit(2, 500) // alerts under the new threshold
	fmt.Println("severity:", h.Labels()["severity"])
	// Output:
	// ALERT [rule] query=big-write at=09:00:00.000 p=sqlservr.exe e.amount=5e+06
	// ALERT [rule] query=big-write at=09:00:02.000 p=sqlservr.exe e.amount=500
	// severity: high
}

// The declarative layer: Apply reconciles a queryset document (named
// queries plus shared params) against the running registry and reports
// what changed. Re-applying an identical set is a no-op.
func ExampleEngine_Apply() {
	eng := saql.New()
	set, err := saql.ParseQuerySet(`
param limit = 1000000

query big-write {
  proc p write ip i as e
  alert e.amount > $limit
  return p, e.amount
}`)
	if err != nil {
		fmt.Println(err)
		return
	}
	rep, _ := eng.Apply(context.Background(), set)
	fmt.Println(rep)
	rep, _ = eng.Apply(context.Background(), set)
	fmt.Println(rep)
	// Output:
	// 1 added (big-write), 0 unchanged
	// no changes (1 unchanged)
}

// The smallest complete use of the legacy serial path: one rule-based query
// over two events, alerts returned synchronously.
//
// Process remains supported on a never-started engine; new code should
// prefer Start + Submit + Subscribe (see ExampleEngine_Subscribe).
func ExampleEngine_Process() {
	eng := saql.New()
	_, err := eng.Register("dump-read", `
proc p1["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt1
proc p2 read file f1 as evt2
with evt1 -> evt2
return p1, f1, p2`)
	if err != nil {
		fmt.Println(err)
		return
	}

	t0 := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)
	events := []*saql.Event{
		{Time: t0, AgentID: "db-1", Subject: saql.Process("sqlservr.exe", 1680),
			Op: saql.OpWrite, Object: saql.File(`C:\db\backup1.dmp`), Amount: 5e7},
		{Time: t0.Add(time.Second), AgentID: "db-1", Subject: saql.Process("sbblv.exe", 3112),
			Op: saql.OpRead, Object: saql.File(`C:\db\backup1.dmp`), Amount: 5e7},
	}
	for _, ev := range events {
		for _, alert := range eng.Process(ev) {
			fmt.Println(alert)
		}
	}
	// Output:
	// ALERT [rule] query=dump-read at=09:00:01.000 p1=sqlservr.exe f1=C:\db\backup1.dmp p2=sbblv.exe
}

// Validate checks a query without registering it — what the command-line UI
// does on every keystroke-submitted query.
func ExampleValidate() {
	err := saql.Validate(`proc p start proc q as e return zz`)
	fmt.Println(err)
	// Output:
	// semantic error at 1:33: unknown identifier "zz"
}

// A time-series query over sliding windows: alert when a window's average
// network volume spikes above the 3-window moving average.
func ExampleEngine_Flush() {
	eng := saql.New()
	_, _ = eng.Register("sma", `
proc p write ip i as evt #time(1 min)
state[3] ss { avg_amount := avg(evt.amount) } group by p
alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 10000)
return p, ss[0].avg_amount`)

	t0 := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)
	conn := saql.NetConn("10.0.3.10", 1433, "203.0.113.77", 8443)
	for minute, amount := range []float64{1000, 1200, 900, 500000} {
		eng.Process(&saql.Event{
			Time:    t0.Add(time.Duration(minute) * time.Minute),
			AgentID: "db-1",
			Subject: saql.Process("sqlservr.exe", 1680),
			Op:      saql.OpWrite, Object: conn, Amount: amount,
		})
	}
	// End of stream: close the open spike window.
	for _, alert := range eng.Flush() {
		fmt.Println(alert)
	}
	// Output:
	// ALERT [time-series] query=sma at=09:04:00.000 group=sqlservr.exe p=sqlservr.exe ss[0].avg_amount=500000
}
