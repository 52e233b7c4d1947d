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
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"saql/internal/conformance"
)

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

// variantQueries are the battery: four families — by-group in two key
// classes, pinned, a by-event rule — at window lengths of 10 to 13 s, with
// thresholds near each family's mean per group and window, scaled with the
// window length, so every variant alerts on some of its windows.
func variantQueries() []conformance.Query {
	var qs []conformance.Query
	for _, fam := range []struct {
		name, shape string
		th          func(w int) int
	}{
		{"sum-by-p", "sum-by-p", func(w int) int { return 1250 * w }},
		{"sum-by-dst", "sum-by-dst", func(w int) int { return 4000 * w }},
		{"total", "reads", func(w int) int { return 23 * w }},
		{"big-start", "big-start", func(w int) int { return 975 + w }},
	} {
		for w := 10; w < 14; w++ {
			qs = append(qs, conformance.Query{Name: fmt.Sprintf("%s-%ds", fam.name, w), Src: secs(fam.shape, w, fam.th(w))})
		}
	}
	return qs
}

// secs is a query shape at a window of w seconds and threshold th.
func secs(shape string, w, th int) string { return conformance.Src(shape, fmt.Sprintf("%d s", w), th) }

// namedScript is one hand-written script.
type namedScript struct {
	name   string
	script []conformance.Step
}

// variantScripts are the battery's hand-written scripts over n events, their
// control points a third and two thirds in: 21 s and 42 s into the variant
// stream, inside a slice of every 10–13 s window.
func variantScripts(n int) []namedScript {
	third := n / 3
	submit := func(from, to int) conformance.Step {
		return conformance.Step{Op: conformance.Submit, From: from, To: to}
	}
	op := func(op conformance.Op, name string) conformance.Step { return conformance.Step{Op: op, Name: name} }
	update := func(name, shape string, w, th int, carry bool) conformance.Step {
		return conformance.Step{Op: conformance.Update, Name: name, Src: secs(shape, w, th), Carry: carry}
	}
	return []namedScript{
		{"pause-one-variant", []conformance.Step{
			submit(0, third),
			op(conformance.Pause, "sum-by-p-11s"),
			op(conformance.Pause, "total-12s"),
			submit(third, 2*third),
			op(conformance.Resume, "sum-by-p-11s"),
			submit(2*third, n),
		}},
		{"paused-master-feeds-dependents", []conformance.Step{
			// The first variant of each family is its group's master: the
			// others keep taking their hits from it while it is paused.
			op(conformance.Pause, "sum-by-p-10s"),
			op(conformance.Pause, "big-start-10s"),
			op(conformance.Pause, "total-10s"),
			submit(0, 2*third),
			op(conformance.Resume, "total-10s"),
			submit(2*third, n),
		}},
		{"swap-class-member", []conformance.Step{
			submit(0, third),
			// Into the other key class: a new directory, fresh state.
			update("sum-by-p-11s", "sum-by-dst", 11, 42000, false),
			// Within the class, carrying the windows it folded by id.
			update("sum-by-p-12s", "sum-by-p", 12, 14000, true),
			submit(third, 2*third),
			// And back, while the class's directory has moved on.
			update("sum-by-p-11s", "sum-by-p", 11, 13000, false),
			submit(2*third, n),
		}},
		{"remove-class-member", []conformance.Step{
			submit(0, third),
			op(conformance.Remove, "sum-by-p-10s"), // the master: a dependent is promoted
			op(conformance.Remove, "sum-by-dst-12s"),
			submit(third, 2*third),
			op(conformance.Remove, "total-11s"),
			submit(2*third, n),
		}},
		{"checkpoint-and-swap-mid-slice", []conformance.Step{
			// The variant sets' logs hold hits when the barrier and the swap
			// land.
			submit(0, third),
			{Op: conformance.Checkpoint},
			{Op: conformance.Stats},
			update("sum-by-dst-13s", "sum-by-dst", 13, 50000, true),
			submit(third, 2*third),
			{Op: conformance.Checkpoint},
			update("sum-by-p-12s", "sum-by-p", 12, 14000, false),
			submit(2*third, n),
			{Op: conformance.Stats},
		}},
	}
}

// TestVariantSetLifecycleMatchesSerial plays the hand-written scripts at 1,
// 2, 3 and 8 shards on the variant stream, where at least half the battery
// must alert on the serial run, and on the disordered stream
// (disordered/...), which has no reads or starts for half the battery and
// where the serial run must count late hits.
func TestVariantSetLifecycleMatchesSerial(t *testing.T) {
	for _, stream := range []struct {
		prefix   string
		events   func(seed int64) []*Event
		alerting int
	}{
		{"", func(int64) []*Event { return variantStream(9000) }, len(variantQueries()) / 2},
		{"disordered/", conformance.Disordered.Events, 0},
	} {
		for i, c := range variantScripts(len(stream.events(0))) {
			t.Run(stream.prefix+c.name, func(t *testing.T) {
				simConfig{
					sim: func(seed int64) *conformance.Sim {
						evs := stream.events(seed)
						return &conformance.Sim{Seed: seed, Events: evs, Queries: variantQueries(), Script: variantScripts(len(evs))[i].script}
					},
					shards:     []int{1, 2, 3, 8},
					seeds:      []int64{1},
					alerting:   stream.alerting,
					stragglers: stream.prefix != "",
				}.run(t)
			})
		}
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
	sim := &conformance.Sim{Seed: 1, Events: evs, Queries: []conformance.Query{
		{Name: "weak", Src: `proc p start proc q2 as e return p, q2`},
		{Name: "strict", Src: `proc p["%cmd.exe"] start proc q2["%osql.exe"] as e return p, q2`},
	}, Script: []conformance.Step{{Op: conformance.Pause, Name: "weak"}, {Op: conformance.Submit, From: 0, To: len(evs)}}}
	want := runSim(t, sim, 0)
	if len(want.alerts) != 2 || !strings.Contains(want.alerts[0], "|strict|") || !strings.Contains(want.alerts[1], "|strict|") {
		t.Fatalf("serial: %v, want the dependent's two cmd->osql alerts", want.alerts)
	}
	for _, shards := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { compareSim(t, runSim(t, sim, shards), want) })
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
	var queries []conformance.Query
	var lengths []time.Duration
	for w := 10; w < 18; w++ {
		queries = append(queries, conformance.Query{Name: fmt.Sprintf("v%d", w), Src: secs("sum-by-p", w, 1250*w)})
		lengths = append(lengths, time.Duration(w)*time.Second)
	}
	lengths = append(lengths, 18*time.Second) // the variant "register" adds
	a := midSlice(evs, len(evs)/3, lengths...)
	b := midSlice(evs, 2*len(evs)/3, lengths...)
	around := func(st conformance.Step) []conformance.Step {
		return []conformance.Step{
			{Op: conformance.Submit, From: 0, To: a}, st,
			{Op: conformance.Submit, From: a, To: b}, {Op: conformance.Stats}, {Op: conformance.Submit, From: b, To: len(evs)},
		}
	}

	// The churn case: a fresh process every five events, windows of 1–1.7 s.
	churn := variantStream(9000)
	var churnQueries []conformance.Query
	for k, ev := range churn {
		ev.Op, ev.Object = OpWrite, NetConn("10.0.0.2", 1433, "10.1.0.1", 443)
		ev.Subject = Process(fmt.Sprintf("svc-%d.exe", k/5), int32(k/5))
	}
	for w := 0; w < 8; w++ {
		churnQueries = append(churnQueries, conformance.Query{Name: fmt.Sprintf("c%d", w), Src: conformance.Src("sum-by-p", fmt.Sprintf("%d ms", 1000+100*w), 1500)})
	}

	// Pinned variants (no group-by) for the hand-over at Start: a pinned query
	// warmed up serially keeps all its state on its primary replica, which
	// Start homes on one shard. A by-group query's warm groups are handed to
	// their owners' shards instead ("start-by-group").
	var pinned []conformance.Query
	for w := 10; w < 18; w++ {
		pinned = append(pinned, conformance.Query{Name: fmt.Sprintf("t%d", w), Src: secs("reads", w, 23*w)})
	}

	cases := []struct {
		name     string
		script   []conformance.Step
		readOnly bool // the script without its control points raises the same alerts
		queries  []conformance.Query
		evs      []*Event
	}{
		{name: "stats", script: around(conformance.Step{Op: conformance.Stats}), readOnly: true},
		{name: "checkpoint", script: around(conformance.Step{Op: conformance.Checkpoint}), readOnly: true},
		{name: "pause-resume", script: []conformance.Step{
			{Op: conformance.Submit, From: 0, To: a},
			{Op: conformance.Pause, Name: "v11"},
			{Op: conformance.Pause, Name: "v10"}, // the master: the others take their hits from it
			{Op: conformance.Stats},
			{Op: conformance.Submit, From: a, To: b},
			{Op: conformance.Resume, Name: "v11"},
			{Op: conformance.Stats},
			{Op: conformance.Submit, From: b, To: len(evs)},
		}},
		{name: "update-carry", script: around(conformance.Step{Op: conformance.Update, Name: "v12", Src: secs("sum-by-p", 12, 14000), Carry: true})},
		{name: "update-fresh", script: around(conformance.Step{Op: conformance.Update, Name: "v13", Src: secs("sum-by-p", 13, 15000)})},
		{name: "register", script: around(conformance.Step{Op: conformance.Register, Name: "v18", Src: secs("sum-by-p", 18, 1250*18)})},
		{name: "remove-master", script: around(conformance.Step{Op: conformance.Remove, Name: "v10"})},
		{name: "flush", script: around(conformance.Step{Op: conformance.Flush})},
		{name: "start", script: around(conformance.Step{Op: conformance.Start}), readOnly: true, queries: pinned, evs: evs},
		{name: "start-by-group", script: around(conformance.Step{Op: conformance.Start}), readOnly: true},
		{name: "directory-reset", script: []conformance.Step{
			{Op: conformance.Submit, From: 0, To: len(churn) / 2},
			{Op: conformance.Stats},
			{Op: conformance.Submit, From: len(churn) / 2, To: len(churn)},
		}, readOnly: true, queries: churnQueries, evs: churn},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim := &conformance.Sim{Seed: 1, Events: evs, Queries: queries, Script: c.script}
			if c.queries != nil {
				sim.Events, sim.Queries = c.evs, c.queries
			}
			want := runSim(t, sim, 0)
			if len(want.alerts) == 0 {
				t.Fatal("the serial run raised no alert")
			}
			if c.readOnly {
				plain := *sim
				plain.Script = []conformance.Step{{Op: conformance.Submit, From: 0, To: len(sim.Events)}}
				if got := runSim(t, &plain, 0).alerts; !slices.Equal(got, want.alerts) {
					t.Fatalf("serial: %d alerts with the control points, %d without", len(want.alerts), len(got))
				}
			}
			for _, shards := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { compareSim(t, runSim(t, sim, shards), want) })
			}
			t.Logf("%d alerts at every shard count", len(want.alerts))
		})
	}
}
