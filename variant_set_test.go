package saql

// Variant sets through their lifecycle. A started engine routes one op per
// variant set — a scheduler group's master and its equal dependents of one key
// class and placement — and a shard expands it to the members placed there
// and not paused, folding them by the group ids of one key class directory.
// Pausing one member, pausing the master the others take their hits from,
// swapping a member for one in another key class (a new directory) or in the
// same one carrying its state, and removing a member mid-window all change
// what that expansion covers; each must leave the alert multiset equal to the
// serial engine's at every shard count.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// variantSrc is one variant of the battery's families: window length w
// seconds, alert threshold th.
func variantSrc(family string, w, th int) string {
	switch family {
	case "sum-by-p": // by-group, keyed by the subject process
		return fmt.Sprintf(`proc p write ip i as e #time(%d s)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > %d
return p, ss.amt`, w, th)
	case "sum-by-dst": // by-group, keyed by the destination: another key class
		return fmt.Sprintf(`proc p write ip i as e #time(%d s)
state ss { amt := sum(e.amount) } group by i.dstip
alert ss.amt > %d
return i.dstip, ss.amt`, w, th)
	case "total": // pinned (no group-by), homed round-robin
		return fmt.Sprintf(`proc p read file f as e #time(%d s)
state ss { n := count(e) }
alert ss.n > %d
return ss.n`, w, th)
	case "big-start": // by-event rule
		return fmt.Sprintf(`proc p start proc c as e
alert e.amount > %d
return p, c`, th)
	}
	panic("unknown family " + family)
}

// variantStep is one step of a lifecycle script.
type variantStep struct {
	op       string // submit | pause | resume | update | remove
	from, to int    // submit: the event range
	name     string
	src      string
	carry    bool
}

// variantStream is n events, 7 ms apart, cycling write-ip / read-file /
// start-proc over 40 processes and 12 destinations, with amounts that make a
// few groups of every window cross the thresholds.
func variantStream(n int) []*Event {
	evs := make([]*Event, n)
	for k := range evs {
		ev := &Event{
			Time:    demoStart.Add(time.Duration(k) * 7 * time.Millisecond),
			AgentID: "host-1",
			Subject: Process(fmt.Sprintf("svc-%d.exe", k%40), int32(100+k%40)),
			Amount:  float64(k % 997),
		}
		switch k % 3 {
		case 0, 1:
			ev.Op, ev.Object = OpWrite, NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.0.%d", k%12), 443)
		default:
			if k%2 == 0 {
				ev.Op, ev.Object = OpRead, File("/var/data/x.db")
			} else {
				ev.Op, ev.Object = OpStart, Process(fmt.Sprintf("child-%d.exe", k%7), int32(9000+k%7))
			}
		}
		evs[k] = ev
	}
	return evs
}

// runVariantScript registers queries (name → source, in order), plays script
// on a serial engine (shards 0) or a started one, and returns the sorted alert
// identities.
func runVariantScript(t *testing.T, shards int, queries [][2]string, script []variantStep, evs []*Event) []string {
	t.Helper()
	eng := New()
	if shards > 0 {
		eng = New(WithShards(shards), WithIngestQueue(64))
	}
	handles := map[string]*QueryHandle{}
	for _, q := range queries {
		h, err := eng.Register(q[0], q[1])
		if err != nil {
			t.Fatalf("Register(%s): %v", q[0], err)
		}
		handles[q[0]] = h
	}
	var got []*Alert
	var consumer sync.WaitGroup
	if shards > 0 {
		sub := eng.Subscribe(1<<16, Block)
		if err := eng.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		consumer.Add(1)
		go func() {
			defer consumer.Done()
			for a := range sub.C {
				got = append(got, a)
			}
		}()
	}
	for _, st := range script {
		var err error
		switch st.op {
		case "submit":
			if shards == 0 {
				for _, ev := range evs[st.from:st.to] {
					got = append(got, eng.Process(ev)...)
				}
				continue
			}
			for lo := st.from; lo < st.to; lo += 97 {
				if err = eng.SubmitBatch(evs[lo:min(lo+97, st.to)]); err != nil {
					break
				}
			}
		case "pause":
			err = handles[st.name].Pause()
		case "resume":
			err = handles[st.name].Resume()
		case "update":
			var opts []UpdateOption
			if st.carry {
				opts = append(opts, CarryWindowState())
			}
			err = handles[st.name].Update(st.src, opts...)
		case "remove":
			err = handles[st.name].Close()
		}
		if err != nil {
			t.Fatalf("%s %s: %v", st.op, st.name, err)
		}
	}
	if shards == 0 {
		got = append(got, eng.Flush()...)
	} else {
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		consumer.Wait()
	}
	if errs := eng.Errors(); len(errs) != 0 {
		t.Fatalf("runtime reported errors: %v", errs)
	}
	ids := make([]string, 0, len(got))
	for _, a := range got {
		ids = append(ids, alertIdentity(a))
	}
	sort.Strings(ids)
	return ids
}

func TestVariantSetLifecycleMatchesSerial(t *testing.T) {
	evs := variantStream(9000) // 63 s of stream: several closes of every window
	var queries [][2]string
	// Thresholds near each family's mean per group and window, scaled with the
	// window length: every variant alerts on some of its windows.
	for _, fam := range []struct {
		name string
		th   func(w int) int
	}{
		{"sum-by-p", func(w int) int { return 1250 * w }},
		{"sum-by-dst", func(w int) int { return 4000 * w }},
		{"total", func(w int) int { return 23 * w }},
		{"big-start", func(w int) int { return 975 + w }},
	} {
		for w := 10; w < 14; w++ {
			queries = append(queries, [2]string{fmt.Sprintf("%s-%ds", fam.name, w), variantSrc(fam.name, w, fam.th(w))})
		}
	}
	third := len(evs) / 3
	// Control points fall mid-window: 21 s, 42 s into the stream.
	cases := []struct {
		name   string
		script []variantStep
	}{
		{"pause-one-variant", []variantStep{
			{op: "submit", from: 0, to: third},
			{op: "pause", name: "sum-by-p-11s"},
			{op: "pause", name: "total-12s"},
			{op: "submit", from: third, to: 2 * third},
			{op: "resume", name: "sum-by-p-11s"},
			{op: "submit", from: 2 * third, to: len(evs)},
		}},
		{"paused-master-feeds-dependents", []variantStep{
			// The first variant of each family is its group's master: the
			// others keep taking their hits from it while it is paused.
			{op: "pause", name: "sum-by-p-10s"},
			{op: "pause", name: "big-start-10s"},
			{op: "pause", name: "total-10s"},
			{op: "submit", from: 0, to: 2 * third},
			{op: "resume", name: "total-10s"},
			{op: "submit", from: 2 * third, to: len(evs)},
		}},
		{"swap-class-member", []variantStep{
			{op: "submit", from: 0, to: third},
			// Into the other key class: a new directory, fresh state.
			{op: "update", name: "sum-by-p-11s", src: variantSrc("sum-by-dst", 11, 42000)},
			// Within the class, carrying the windows it folded by id.
			{op: "update", name: "sum-by-p-12s", src: variantSrc("sum-by-p", 12, 14000), carry: true},
			{op: "submit", from: third, to: 2 * third},
			// And back, while the class's directory has moved on.
			{op: "update", name: "sum-by-p-11s", src: variantSrc("sum-by-p", 11, 13000)},
			{op: "submit", from: 2 * third, to: len(evs)},
		}},
		{"remove-class-member", []variantStep{
			{op: "submit", from: 0, to: third},
			{op: "remove", name: "sum-by-p-10s"}, // the master: a dependent is promoted
			{op: "remove", name: "sum-by-dst-12s"},
			{op: "submit", from: third, to: 2 * third},
			{op: "remove", name: "total-11s"},
			{op: "submit", from: 2 * third, to: len(evs)},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := runVariantScript(t, 0, queries, c.script, evs)
			alerting := map[string]bool{}
			for _, id := range want {
				alerting[strings.SplitN(strings.SplitN(id, "|", 2)[1], "|", 2)[0]] = true
			}
			t.Logf("serial: %d alerts from %d queries", len(want), len(alerting))
			if len(alerting) < len(queries)/2 {
				t.Fatalf("only %d of %d queries alerted on the serial run: the script exercises too little", len(alerting), len(queries))
			}
			for _, shards := range []int{1, 2, 3, 8} {
				got := runVariantScript(t, shards, queries, c.script, evs)
				if len(got) != len(want) {
					t.Errorf("shards=%d: %d alerts, serial %d", shards, len(got), len(want))
				}
				for i := 0; i < len(got) && i < len(want); i++ {
					if got[i] != want[i] {
						t.Fatalf("shards=%d: alert sets diverge at #%d:\n  started: %s\n  serial:  %s", shards, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestPausedMasterStillFeedsDependentsStarted is the scheduler's
// TestPausedMasterStillFeedsDependents run through a started engine at every
// shard count: a paused master still evaluates the patterns its active
// dependent needs, and only the dependent alerts.
func TestPausedMasterStillFeedsDependentsStarted(t *testing.T) {
	var evs []*Event
	for i, pc := range [][2]string{{"cmd.exe", "osql.exe"}, {"cmd.exe", "ping.exe"}, {"explorer.exe", "notepad.exe"}, {"cmd.exe", "osql.exe"}, {"bash", "ls"}} {
		evs = append(evs, &Event{
			Time:    demoStart.Add(time.Duration(i) * time.Second),
			AgentID: "h1",
			Subject: Process(pc[0], int32(100+i)),
			Op:      OpStart,
			Object:  Process(pc[1], int32(200+i)),
		})
	}
	queries := [][2]string{
		{"weak", `proc p start proc q2 as e return p, q2`},
		{"strict", `proc p["%cmd.exe"] start proc q2["%osql.exe"] as e return p, q2`},
	}
	script := []variantStep{{op: "pause", name: "weak"}, {op: "submit", from: 0, to: len(evs)}}
	want := runVariantScript(t, 0, queries, script, evs)
	if len(want) != 2 || !strings.Contains(want[0], "|strict|") || !strings.Contains(want[1], "|strict|") {
		t.Fatalf("serial: %v, want the dependent's two cmd->osql alerts", want)
	}
	for _, shards := range []int{1, 2, 3, 8} {
		if got := runVariantScript(t, shards, queries, script, evs); !slices.Equal(got, want) {
			t.Errorf("shards=%d: %v, serial %v", shards, got, want)
		}
	}
}
