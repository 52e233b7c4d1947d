package engine

import (
	"fmt"
	"testing"
	"time"

	"saql/internal/event"
)

// closeShapes are one stateful query under three alerts: one that reads only
// window state and never fires, one that also reads an entity binding and
// never fires, and one that fires for every group and so evaluates the return
// clause (a bare entity, an attribute, a state field).
var closeShapes = []struct{ name, alert string }{
	{"state-only-quiet", `ss.amt > 1000000000000`},
	{"binding-quiet", `p.exe_name == "never.exe" && ss.amt > 1000000000000`},
	{"firing", `ss.amt > 0`},
}

func closeShapeSrc(alert string) string {
	return `proc p write ip i as e #time(10 s)
state ss { amt := sum(e.amount) } group by p
alert ` + alert + `
return p, i.dstip, ss[0].amt`
}

// closeWindowEvents is one event per group inside window w of closeShapeSrc.
func closeWindowEvents(w, groups int) []*event.Event {
	at := t0.Add(time.Duration(w) * 10 * time.Second)
	conn := event.NetConn("10.0.0.2", 1433, "10.1.0.9", 443)
	evs := make([]*event.Event, groups)
	for g := range evs {
		evs[g] = ev(at.Add(time.Duration(g)*time.Millisecond), "db-1",
			event.Process(fmt.Sprintf("svc-%04d.exe", g), int32(1000+g)), event.OpWrite, conn, 100)
	}
	return evs
}

// BenchmarkWindowClose times one window close over 2 000 present groups —
// snapshot, history push, alert evaluation and, where the alert fires, the
// return clause, then the hand-back of the window's groups for reuse — with
// the fold that fills the window outside the timer. Medians of five
// alternated runs of 200 closes on 2 cores, ms/close, before → after a close
// began writing snapshots into the histories' ring slots and recycling the
// closed window's groups: state-only-quiet 1.26 → 1.02, binding-quiet
// 1.36 → 1.16, firing 2.45 → 2.25; allocs/close 4,033 → 61 quiet and
// 8,047 → 4,075 firing (the 61 are the first close's new histories, spread
// over the 200). When a close began keeping its key order from the last
// close instead of sorting every window's keys (medians of five alternated
// runs of 200 closes on 2 cores): state-only-quiet 0.79 → 0.42,
// binding-quiet 0.80 → 0.44, firing 1.62 → 1.18 ms; allocs/close 61 → 60
// quiet and 4,075 → 4,074 firing (the closed-window list is reused).
func BenchmarkWindowClose(b *testing.B) {
	const groups = 2000
	for _, sh := range closeShapes {
		b.Run(sh.name, func(b *testing.B) {
			q, err := Compile(sh.name, closeShapeSrc(sh.alert), CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			report := func(err error) { b.Fatal(err) }
			alerts := 0
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < b.N; w++ {
				b.StopTimer()
				for _, e := range closeWindowEvents(w, groups) {
					q.Process(e, report)
				}
				q.settle()
				b.StartTimer()
				alerts += len(q.closeAll(q.winMgr.Advance(t0.Add(time.Duration(w+1)*10*time.Second)), report))
			}
			b.StopTimer()
			want := 0
			if sh.name == "firing" {
				want = groups * b.N
			}
			if alerts != want {
				b.Fatalf("%d alerts, want %d", alerts, want)
			}
		})
	}
}
