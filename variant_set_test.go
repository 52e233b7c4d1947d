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
	// submit | pause | resume | update | remove | register, or a control point
	// that changes nothing: stats (QueryStats of every query, Tenants),
	// checkpoint (a snapshot of a journaled engine, what a cluster exports on
	// migration), flush (every open window closes mid-stream), start (a
	// sharded run processes the steps before it serially, then starts and
	// hands its queries to the shards; without it, it starts first).
	op       string
	from, to int // submit: the event range
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
// identities and what each stats step read: every registered query's
// counters, state size aside (a started engine's replicas each encode the
// windows they share).
func runVariantScript(t *testing.T, shards int, queries [][2]string, script []variantStep, evs []*Event) (ids, stats []string) {
	t.Helper()
	var opts []Option
	if shards > 0 {
		opts = append(opts, WithShards(shards), WithIngestQueue(64))
	}
	dir := ""
	for _, st := range script {
		if st.op == "checkpoint" && dir == "" {
			dir = t.TempDir()
			store, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, WithJournal(store))
		}
	}
	eng := New(opts...)
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
	started := false
	if shards > 0 {
		sub := eng.Subscribe(1<<16, Block)
		if !slices.ContainsFunc(script, func(st variantStep) bool { return st.op == "start" }) {
			if err := eng.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			started = true
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
			if !started {
				for _, ev := range evs[st.from:st.to] {
					if alerts := eng.Process(ev); shards == 0 {
						got = append(got, alerts...) // a sharded run's warm-up alerts reach its subscription
					}
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
		case "register":
			handles[st.name], err = eng.Register(st.name, st.src)
		case "stats":
			stats = append(stats, readVariantStats(t, eng)...)
		case "checkpoint":
			_, err = eng.Checkpoint(dir)
		case "flush":
			if flushed := eng.Flush(); shards == 0 {
				got = append(got, flushed...) // a started engine delivers them to subscribers too
			}
		case "start":
			if shards > 0 {
				err = eng.Start(context.Background())
				started = true
			}
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
	ids = make([]string, 0, len(got))
	for _, a := range got {
		ids = append(ids, alertIdentity(a))
	}
	sort.Strings(ids)
	return ids, stats
}

// readVariantStats renders every registered query's counters, in name order,
// and reads the tenants' (state bytes included) for the seal it takes.
func readVariantStats(t *testing.T, eng *Engine) []string {
	t.Helper()
	var out []string
	for _, h := range eng.Queries() {
		st, err := h.Stats()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s: events %d hits %d closed %d alerts %d late %d errors %d",
			h.Name(), st.Events, st.PatternHits, st.WindowsClosed, st.Alerts, st.LateHits, st.EvalErrors))
	}
	sort.Strings(out)
	if len(eng.Tenants()) == 0 {
		t.Fatal("no tenant stats")
	}
	return out
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
		{"checkpoint-and-swap-mid-slice", []variantStep{
			// 21 s and 42 s in are inside a slice of every 10–13 s window: the
			// variant sets' logs hold hits when the barrier and the swap land.
			{op: "submit", from: 0, to: third},
			{op: "checkpoint"},
			{op: "stats"},
			{op: "update", name: "sum-by-dst-13s", src: variantSrc("sum-by-dst", 13, 50000), carry: true},
			{op: "submit", from: third, to: 2 * third},
			{op: "checkpoint"},
			{op: "update", name: "sum-by-p-12s", src: variantSrc("sum-by-p", 12, 14000)},
			{op: "submit", from: 2 * third, to: len(evs)},
			{op: "stats"},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantStats := runVariantScript(t, 0, queries, c.script, evs)
			alerting := map[string]bool{}
			for _, id := range want {
				alerting[strings.SplitN(strings.SplitN(id, "|", 2)[1], "|", 2)[0]] = true
			}
			t.Logf("serial: %d alerts from %d queries", len(want), len(alerting))
			if len(alerting) < len(queries)/2 {
				t.Fatalf("only %d of %d queries alerted on the serial run: the script exercises too little", len(alerting), len(queries))
			}
			for _, shards := range []int{1, 2, 3, 8} {
				got, stats := runVariantScript(t, shards, queries, c.script, evs)
				if !slices.Equal(stats, wantStats) {
					t.Errorf("shards=%d: counters at the stats steps\n  started: %v\n  serial:  %v", shards, stats, wantStats)
				}
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
	want, _ := runVariantScript(t, 0, queries, script, evs)
	if len(want) != 2 || !strings.Contains(want[0], "|strict|") || !strings.Contains(want[1], "|strict|") {
		t.Fatalf("serial: %v, want the dependent's two cmd->osql alerts", want)
	}
	for _, shards := range []int{1, 2, 3, 8} {
		if got, _ := runVariantScript(t, shards, queries, script, evs); !slices.Equal(got, want) {
			t.Errorf("shards=%d: %v, serial %v", shards, got, want)
		}
	}
}

// midSlice returns the first index from i on whose event lies at least 20 ms
// from every edge of tumbling windows of the given lengths: a control point
// before that event falls inside a slice of the variant set, where its slice
// log holds hits.
func midSlice(evs []*Event, i int, lengths ...time.Duration) int {
	const margin = 20 * time.Millisecond
	for ; ; i++ {
		ok := true
		for _, l := range lengths {
			off := time.Duration(evs[i].Time.UnixNano() % int64(l))
			ok = ok && off >= margin && l-off >= margin
		}
		if ok {
			return i
		}
	}
}

// TestControlPointsSealMidSlice calls each entry point that reads, hands over
// or changes per-query state or membership — a stats read (QueryStats, the
// tenants' state bytes), a checkpoint barrier (also what a cluster exports on
// migration), pause and resume, an update with and without carried state,
// registering and removing a member, a mid-stream flush, the hand-over of a
// serially warmed-up engine's queries to its shards at Start — inside a slice of a
// set of eight window-length variants, where the set's slice log holds hits,
// and holds a started engine at 1, 2 and 8 shards to the serial engine: the
// same alerts, and the same counters at every stats step. A control point
// that changes nothing must also leave the serial alerts as they are without
// it. The last case churns group keys through eight sub-second windows so the
// key class bounds its directory — a seal of its own — mid-stream.
func TestControlPointsSealMidSlice(t *testing.T) {
	evs := variantStream(9000) // 63 s
	var queries [][2]string
	var lengths []time.Duration
	for w := 10; w < 18; w++ {
		queries = append(queries, [2]string{fmt.Sprintf("v%d", w), variantSrc("sum-by-p", w, 1250*w)})
		lengths = append(lengths, time.Duration(w)*time.Second)
	}
	lengths = append(lengths, 18*time.Second) // the variant "register" adds
	a := midSlice(evs, len(evs)/3, lengths...)
	b := midSlice(evs, 2*len(evs)/3, lengths...)
	around := func(steps ...variantStep) []variantStep {
		out := []variantStep{{op: "submit", from: 0, to: a}}
		out = append(out, steps...)
		return append(out, variantStep{op: "submit", from: a, to: b}, variantStep{op: "stats"}, variantStep{op: "submit", from: b, to: len(evs)})
	}

	// The churn case: a fresh process every five events, windows of 1–1.7 s.
	churn := variantStream(9000)
	var churnQueries [][2]string
	for k, ev := range churn {
		ev.Op, ev.Object = OpWrite, NetConn("10.0.0.2", 1433, "10.1.0.1", 443)
		ev.Subject = Process(fmt.Sprintf("svc-%d.exe", k/5), int32(k/5))
	}
	for w := 0; w < 8; w++ {
		churnQueries = append(churnQueries, [2]string{fmt.Sprintf("c%d", w), fmt.Sprintf(`proc p write ip i as e #time(%d ms)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 1500
return p, ss.amt`, 1000+100*w)})
	}

	// Pinned variants (no group-by) for the hand-over at Start: a query
	// warmed up serially keeps all its state on its primary replica, which
	// Start homes on one shard, and a pinned query's state all belongs there.
	// (A by-group query's warm groups do not move to their owners' shards.)
	var pinned [][2]string
	for w := 10; w < 18; w++ {
		pinned = append(pinned, [2]string{fmt.Sprintf("t%d", w), variantSrc("total", w, 23*w)})
	}

	cases := []struct {
		name     string
		script   []variantStep
		readOnly bool // the script without its control points raises the same alerts
		queries  [][2]string
		evs      []*Event
	}{
		{name: "stats", script: around(variantStep{op: "stats"}), readOnly: true},
		{name: "checkpoint", script: around(variantStep{op: "checkpoint"}), readOnly: true},
		{name: "pause-resume", script: []variantStep{
			{op: "submit", from: 0, to: a},
			{op: "pause", name: "v11"},
			{op: "pause", name: "v10"}, // the master: the others take their hits from it
			{op: "stats"},
			{op: "submit", from: a, to: b},
			{op: "resume", name: "v11"},
			{op: "stats"},
			{op: "submit", from: b, to: len(evs)},
		}},
		{name: "update-carry", script: around(variantStep{op: "update", name: "v12", src: variantSrc("sum-by-p", 12, 14000), carry: true})},
		{name: "update-fresh", script: around(variantStep{op: "update", name: "v13", src: variantSrc("sum-by-p", 13, 15000)})},
		{name: "register", script: around(variantStep{op: "register", name: "v18", src: variantSrc("sum-by-p", 18, 1250*18)})},
		{name: "remove-master", script: around(variantStep{op: "remove", name: "v10"})},
		{name: "flush", script: around(variantStep{op: "flush"})},
		{name: "start", script: around(variantStep{op: "start"}), readOnly: true, queries: pinned, evs: evs},
		{name: "directory-reset", script: []variantStep{
			{op: "submit", from: 0, to: len(churn) / 2},
			{op: "stats"},
			{op: "submit", from: len(churn) / 2, to: len(churn)},
		}, readOnly: true, queries: churnQueries, evs: churn},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			qs, stream := queries, evs
			if c.queries != nil {
				qs, stream = c.queries, c.evs
			}
			want, wantStats := runVariantScript(t, 0, qs, c.script, stream)
			if len(want) == 0 {
				t.Fatal("the serial run raised no alert")
			}
			if c.readOnly {
				plain, _ := runVariantScript(t, 0, qs, []variantStep{{op: "submit", from: 0, to: len(stream)}}, stream)
				if !slices.Equal(plain, want) {
					t.Fatalf("serial: %d alerts with the control points, %d without", len(want), len(plain))
				}
			}
			for _, shards := range []int{1, 2, 8} {
				got, stats := runVariantScript(t, shards, qs, c.script, stream)
				if !slices.Equal(stats, wantStats) {
					t.Errorf("shards=%d: counters at the stats steps\n  started: %v\n  serial:  %v", shards, stats, wantStats)
				}
				if !slices.Equal(got, want) {
					t.Errorf("shards=%d: %d alerts, serial %d", shards, len(got), len(want))
				}
			}
			t.Logf("%d alerts at every shard count", len(want))
		})
	}
}
