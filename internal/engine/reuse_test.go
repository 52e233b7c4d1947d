package engine

// A closed window's groups, their aggregators and binding slices go back to
// the window manager and become the groups of the windows that open next
// (window.Manager.Recycle), and a history overwrites its oldest snapshot in
// place. Nothing handed out may alias that storage: this test takes the
// alerts raised and the state blob encoded at one point of a stream, closes
// later windows that reuse the storage, and holds both to what they were —
// and a replica restored from the blob to the query it was taken from, to the
// end of the stream.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"saql/internal/event"
)

// reuseShapes are the four state kinds of the benchmark's qs-hot set, with
// thresholds low enough that each alerts on both sides of the split: a
// three-deep history, a set under an invariant, DBSCAN over the window's
// groups, and a count that returns a binding.
var reuseShapes = []struct {
	name, src string
	event     func(w, k int) *event.Event
}{
	{"ts-avg", `proc p write ip i as evt #time(10 s)
state[3] ss { avg_amount := avg(evt.amount) } group by p
alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 500)
return p, i, ss[0].avg_amount, ss[2].avg_amount`, func(w, k int) *event.Event {
		g := reuseGroup(w, k)
		return reuseEvent(w, k, event.Process(fmt.Sprintf("svc-%d.exe", g), int32(100+g)), event.OpWrite,
			event.NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.0.%d", k%7), 443), float64(100*(1+(5*w+3*g+k)%13)))
	}},
	{"inv-children", `proc p1 start proc p2 as evt #time(10 s)
state ss { kids := set(p2.exe_name) } group by p1
invariant[3][offline] {
  a := empty_set
  a = a union ss.kids
}
alert |ss.kids diff a| > 0
return p1, ss.kids, p2`, func(w, k int) *event.Event {
		g := reuseGroup(w, k)
		child := (w + k) % (3 + w)
		return reuseEvent(w, k, event.Process(fmt.Sprintf("svc-%d.exe", g), int32(100+g)), event.OpStart,
			event.Process(fmt.Sprintf("child-%d.exe", child), int32(9000+child)), 0)
	}},
	{"outlier-dst", `proc p read || write ip i as evt #time(10 s)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(200000, 3)")
alert cluster.outlier && ss.amt > 2000000
return i.dstip, ss.amt, p`, func(w, k int) *event.Event {
		g := reuseGroup(w, k)
		amount := 1000.0
		if g == w%reuseGroups {
			amount = 3000000 // one destination per window stands apart
		}
		return reuseEvent(w, k, event.Process("db.exe", 7), event.OpWrite,
			event.NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.0.%d", g), 443), amount)
	}},
	{"count-files", `proc p read || write file f as evt #time(10 s)
state ss { n := count(evt) } group by p
alert ss.n > 4
return p, f, ss.n`, func(w, k int) *event.Event {
		g := reuseGroup(w, k)
		return reuseEvent(w, k, event.Process(fmt.Sprintf("svc-%d.exe", g), int32(100+g)), event.OpRead,
			event.File(fmt.Sprintf("/var/data/%d-%d.db", w, k%5)), 0)
	}},
}

const (
	reuseWindows   = 12 // 10 s windows in the stream
	reuseSplit     = 6  // windows before the point the alerts and the blob are taken
	reuseGroups    = 12
	reusePerWindow = 60
)

// reuseGroup is hit k's group in window w: each window leaves out a quarter
// of the groups, a different quarter every window, so recycled groups come
// back under other keys and quiet groups take empty snapshots.
func reuseGroup(w, k int) int {
	g := k % reuseGroups
	if (g+w)%4 == 0 {
		g = (g + 1) % reuseGroups
	}
	return g
}

func reuseEvent(w, k int, subj event.Entity, op event.Op, obj event.Entity, amount float64) *event.Event {
	at := t0.Add(time.Duration(w)*10*time.Second + time.Duration(k)*(10*time.Second/reusePerWindow))
	return ev(at, "db-1", subj, op, obj, amount)
}

func TestClosedStateNotAliasedByReuse(t *testing.T) {
	for _, sh := range reuseShapes {
		t.Run(sh.name, func(t *testing.T) {
			q := compile(t, sh.name, sh.src)
			report := func(err error) { t.Fatalf("runtime error: %v", err) }
			var before []*Alert
			for w := range reuseSplit {
				for k := range reusePerWindow {
					before = append(before, q.Process(sh.event(w, k), report)...)
				}
			}
			rendered := renderAlerts(before)
			blob, err := q.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			saved := bytes.Clone(blob)
			restored := q.Replica()
			if err := restored.RestoreState(blob, nil, true); err != nil {
				t.Fatal(err)
			}

			// The later windows reuse the closed windows' groups and overwrite
			// the oldest history slots, on both sides.
			var after, afterRestored []*Alert
			for w := reuseSplit; w < reuseWindows; w++ {
				for k := range reusePerWindow {
					e := sh.event(w, k)
					after = append(after, q.Process(e, report)...)
					afterRestored = append(afterRestored, restored.Process(e, report)...)
				}
			}
			after = append(after, q.soloFlush(report)...)
			afterRestored = append(afterRestored, restored.soloFlush(report)...)
			t.Logf("%d alerts before the split, %d after", len(before), len(after))
			if len(before) == 0 || len(after) == 0 {
				t.Fatalf("%d alerts before the split, %d after: the shape must alert on both sides", len(before), len(after))
			}

			if got := renderAlerts(before); got != rendered {
				t.Errorf("alerts raised before the split changed when later windows reused the storage:\nthen %s\nnow  %s", rendered, got)
			}
			if !bytes.Equal(blob, saved) {
				t.Error("the state blob changed when later windows reused the storage")
			}
			if got, want := renderAlerts(afterRestored), renderAlerts(after); got != want {
				t.Errorf("the replica restored at the split alerts differently:\n got %s\nwant %s", got, want)
			}
			got, err := restored.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			want, err := q.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("the replica restored at the split ends in other state (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}
