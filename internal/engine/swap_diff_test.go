package engine

// The fence of the hot-swap carry: a replacement that takes its predecessor's
// state as a blob (CarryStateFrom) is held to one that takes it by pointer
// (refCarryStateFrom, swap_ref_test.go) over random carry-compatible pairs —
// alert thresholds, return clauses and `distinct` free to change, with or
// without an invariant block — swapped at random points of a stream whose
// group keys churn: mid-slice with hits logged, and right after the old
// query's key class reset its directory.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"saql/internal/event"
)

// carryStream draws n events over a few minutes: writes, process starts and
// reads from a small set of busy processes and a large set of one-off ones
// and writes to hundreds of destinations (the keys that fill a directory
// until it resets), with an occasional event far behind the stream (a late
// hit).
func carryStream(rng *rand.Rand, n int) []*event.Event {
	hosts := []string{"ws-1", "ws-2", "db-1"}
	exes := []string{"svc.exe", "cmd.exe", "sqlservr.exe", "chrome.exe", "backup.exe", "powershell.exe"}
	kids := []string{"osql.exe", "net.exe", "whoami.exe", "notepad.exe", "ftp.exe", "sc.exe", "reg.exe"}
	now := t0
	evs := make([]*event.Event, n)
	for k := range evs {
		now = now.Add(time.Duration(rng.Intn(400)) * time.Millisecond)
		at := now
		if rng.Intn(50) == 0 {
			at = at.Add(-time.Duration(5+rng.Intn(60)) * time.Second)
		}
		subj := event.Process(exes[rng.Intn(3)], int32(1+rng.Intn(4)))
		if rng.Intn(2) == 0 {
			subj = event.Process(exes[rng.Intn(len(exes))], int32(100+rng.Intn(5000)))
		}
		ev := &event.Event{ID: uint64(k), Time: at, AgentID: hosts[rng.Intn(len(hosts))], Subject: subj}
		switch rng.Intn(5) {
		case 0, 1:
			ev.Op = event.OpWrite
			ev.Object = event.NetConn("10.0.0.1", 4000, fmt.Sprintf("10.1.%d.%d", rng.Intn(4), rng.Intn(200)), []int32{22, 80, 443}[rng.Intn(3)])
			ev.Amount = float64(rng.Intn(5000))
		case 2, 3:
			ev.Op = event.OpStart
			ev.Object = event.Process(kids[rng.Intn(len(kids))], int32(rng.Intn(9000)))
		default:
			ev.Op = event.OpRead
			ev.Object = event.File(fmt.Sprintf("/data/f%d", rng.Intn(50)))
		}
		evs[k] = ev
	}
	return evs
}

// carryPair draws a carry-compatible pair of stateful queries: one pattern,
// window, state block and invariant block, and on each side its own alert
// thresholds and, half the time, its own return clause (`distinct` in it or
// not). churn groups writes by destination, the key the stream keeps
// renewing.
func carryPair(rng *rand.Rand, churn bool) (oldSrc, newSrc string) {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	hist := 1 + rng.Intn(3)
	win := pick("10 s", "30 s", "1 min", "30 s, 10 s")
	var head, set string
	var groups, rets []string
	if churn || rng.Intn(2) == 0 {
		head = fmt.Sprintf("proc p write ip i as e #time(%s)\nstate[%d] ss { amt := sum(e.amount)\n  n := count(e)\n  dsts := set(i.dstip) }", win, hist)
		set = "ss.dsts"
		groups = []string{"i.dstip", "p", "p, i.dport"}
		rets = []string{"p", "p, ss.amt", "p, ss.amt as total", "i.dstip, ss.n", "p, i, ss.n, ss.amt"}
		if hist > 1 {
			rets = append(rets, "p, ss[1].amt, ss.amt")
		}
	} else {
		head = fmt.Sprintf("proc p start proc c as e #time(%s)\nstate[%d] ss { kids := set(c.exe_name)\n  n := count(e) }", win, hist)
		set = "ss.kids"
		groups = []string{"p", "c.exe_name"}
		rets = []string{"p", "p, ss.n", "p, ss.kids", "c, ss.n"}
	}
	if churn {
		groups = groups[:1]
	}
	head += " group by " + pick(groups...)
	inv := ""
	if rng.Intn(2) == 0 {
		inv = fmt.Sprintf("\ninvariant[%d][%s] {\n  a := empty_set\n  a = a union %s\n}", 2+rng.Intn(2), pick("offline", "online"), set)
		rets = append(rets, "p, "+set+", a")
	}
	alert := func() string {
		switch {
		case inv != "":
			return fmt.Sprintf("alert |%s diff a| > %d", set, rng.Intn(3))
		case set == "ss.dsts":
			return fmt.Sprintf("alert ss.amt > %d", 1000*(1+rng.Intn(12)))
		}
		return fmt.Sprintf("alert ss.n > %d", rng.Intn(4))
	}
	ret := func() string {
		r := "return "
		if rng.Intn(2) == 0 {
			r += "distinct "
		}
		return r + pick(rets...)
	}
	oldRet := ret()
	newRet := oldRet
	if rng.Intn(2) == 0 {
		newRet = ret()
	}
	oldSrc = head + inv + "\n" + alert() + "\n" + oldRet
	newSrc = head + inv + "\n" + alert() + "\n" + newRet
	return oldSrc, newSrc
}

// renderCarried spells out an alert by value: a carried group's bindings are
// decoded copies on one side and the stream's own events on the other.
func renderCarried(alerts []*Alert) string {
	var b strings.Builder
	for _, a := range alerts {
		fmt.Fprintf(&b, "%s/%s key=%q at=%d", a.Query, a.Kind, a.GroupKey, a.EventTime.UnixNano())
		for _, ev := range a.Events {
			fmt.Fprintf(&b, " ev(%d %d %s %v %s %v %g)", ev.ID, ev.Time.UnixNano(), ev.AgentID, ev.Subject, ev.Op, ev.Object, ev.Amount)
		}
		for _, nv := range a.Values {
			fmt.Fprintf(&b, " | %s=%s(%s)", nv.Name, nv.Val.Kind(), nv.Val)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Where a run swaps: at a random event, at the first one at or after it that
// leaves hits in the old query's slice log, or at the first one at or after
// it that resets the old query's key class directory.
const (
	swapAnywhere = iota
	swapMidSlice
	swapAfterReset
)

// carrySide is one side of the differential: the query it runs, swapped by
// its own carry.
type carrySide struct {
	q     *Query
	carry func(q, old *Query) error
}

// compileCarry compiles one side's query, on a fixed clock.
func compileCarry(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Compile("carry", src, CompileOptions{})
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	q.SetClock(func() time.Time { return t0 })
	return q
}

// TestCarryMatchesReference runs each pair twice, swapping the old query for
// the new one at the same event: once by the blob carry, once by the
// pointer-moving oracle. After the swap and after the rest of the stream the
// two agree on the alerts, every QueryStats field and the EncodeState bytes.
func TestCarryMatchesReference(t *testing.T) {
	var swapped [3]int
	alerts := 0
	for _, s := range sliceLogSeeds(t) {
		t.Run(s.Label, func(t *testing.T) {
			rng := rand.New(rand.NewSource(s.Value))
			events := carryStream(rng, 3000)
			for run := 0; run < 20; run++ {
				mode := rng.Intn(3)
				oldSrc, newSrc := carryPair(rng, mode == swapAfterReset)
				from := rng.Intn(len(events) / 2)
				if mode == swapAfterReset {
					from /= 4 // a directory resets a few times a stream
				}
				at, n := runCarryPair(t, events, oldSrc, newSrc, mode, from)
				if at >= 0 {
					swapped[mode]++
				}
				alerts += n
			}
		})
	}
	t.Logf("%d alerts; swaps anywhere / mid-slice / after a directory reset: %v", alerts, swapped)
	if swapped[swapMidSlice] == 0 || swapped[swapAfterReset] == 0 {
		t.Errorf("swaps anywhere / mid-slice / after a directory reset = %v: a swap point was never reached", swapped)
	}
}

// runCarryPair runs one pair on both sides and returns the index of the event
// after which they swapped (-1 when the point mode asks for never came) and
// the alerts each side raised.
func runCarryPair(t *testing.T, events []*event.Event, oldSrc, newSrc string, mode, from int) (swapAt, alerts int) {
	t.Helper()
	sides := []*carrySide{
		{carry: func(q, old *Query) error { return q.CarryStateFrom(old) }},
		{carry: func(q, old *Query) error { q.refCarryStateFrom(old); return nil }},
	}
	for _, side := range sides {
		side.q = compileCarry(t, oldSrc)
	}
	if !compileCarry(t, newSrc).CanCarryStateFrom(sides[0].q) {
		t.Fatalf("pair not carry-compatible:\n%s\n--\n%s", oldSrc, newSrc)
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s\n-- old:\n%s\n-- new:\n%s", fmt.Sprintf(format, args...), oldSrc, newSrc)
	}
	compare := func(when string, got, want []*Alert) {
		t.Helper()
		if g, w := renderCarried(got), renderCarried(want); g != w {
			fail("%s: alerts diverge:\n  blob:    %s  pointer: %s", when, g, w)
		}
		if g, w := sides[0].q.Stats(), sides[1].q.Stats(); g != w {
			fail("%s: stats diverge:\n  blob:    %+v\n  pointer: %+v", when, g, w)
		}
	}
	compareState := func(when string) {
		t.Helper()
		g, err := sides[0].q.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		w, err := sides[1].q.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		if string(g) != string(w) {
			fail("%s: state blobs diverge (%d vs %d bytes)", when, len(g), len(w))
		}
	}

	swapAt = -1
	for k, ev := range events {
		var out [2][]*Alert
		var dirBefore int
		if mode == swapAfterReset {
			dirBefore = soloOf(sides[0].q).log.kc.dir.Len()
		}
		for i, side := range sides {
			out[i] = side.q.soloIngest(ev, side.q.Hits(ev), nil)
		}
		if renderCarried(out[0]) != renderCarried(out[1]) {
			fail("event %d: alerts diverge:\n  blob:    %s  pointer: %s", k, renderCarried(out[0]), renderCarried(out[1]))
		}
		alerts += len(out[0])
		if swapAt >= 0 || k < from || k == len(events)-1 {
			continue
		}
		switch mode {
		case swapMidSlice:
			if len(soloOf(sides[0].q).log.hits) == 0 {
				continue
			}
		case swapAfterReset:
			if soloOf(sides[0].q).log.kc.dir.Len() >= dirBefore {
				continue
			}
		}
		swapAt = k
		for _, side := range sides {
			next := compileCarry(t, newSrc)
			if err := side.carry(next, side.q); err != nil {
				fail("carry after event %d: %v", k, err)
			}
			side.q = next
		}
		compare(fmt.Sprintf("swap after event %d", k), nil, nil)
		compareState(fmt.Sprintf("swap after event %d", k))
	}
	flushed := sides[0].q.soloFlush(nil)
	compare("flush", flushed, sides[1].q.soloFlush(nil))
	compareState("end of stream")
	return swapAt, alerts + len(flushed)
}
