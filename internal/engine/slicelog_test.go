package engine

// The slice log against the per-event, per-member fold it replaced
// (fold_ref_test.go): a variant set of one to eight members of mixed window
// specs — tumbling, hopping, gapped — folds a seeded random stream through one
// log while twins of the same queries fold it hit by hit, and after every seal
// the two sides agree on the alerts raised so far, on every QueryStats field
// (LateHits is the managers' LateEvents), on the state bytes and, member by
// member and in order, on the errors reported. Its mixed-fields sets give the
// members different state fields over the same patterns and key, so that the
// log's program table holds programs some members read and others do not.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"saql/internal/conformance"
	"saql/internal/event"
	"saql/internal/parser"
	"saql/internal/window"
)

// sliceLogSrc is a member of the differential's variant sets: two patterns
// (so a log carries more than one), a key that fails for one process in seven,
// the state fields, and an alert on the count.
const sliceLogSrc = `proc p write ip i as e1
proc p read file f as e2 #time(%d ms)
state ss { %s } group by p, 100 / (p.pid %% 7)
alert ss.n > 2
return p, ss.n, ss.amt`

// sliceLogFields are every member's state fields in the differential's plain
// sets: arguments that fail on the other pattern's hits, and one that fails on
// about half of its own with an error naming the hit's amount (so that errors
// in the wrong order show).
const sliceLogFields = `n := count(e1)
           amt := sum(e1.amount)
           root := sum(sqrt(e1.amount - 500))
           files := set(f.name)`

// mixedFields are member i's state fields in a mixed-fields set: n and amt,
// which every member has; root, which half of them have; top, which only
// member 0 has; and names, one program that member 0 sums — every hit fails
// there, and only there — while the others collect it in a set. Every third
// member declares them in reverse, so that field and column orders differ.
func mixedFields(i int) string {
	fields := []string{"n := count(e1)", "amt := sum(e1.amount)"}
	if i%2 == 0 {
		fields = append(fields, "root := sum(sqrt(e1.amount - 500))")
	}
	if i == 0 {
		fields = append(fields, "top := max(e1.amount * 2)", "names := sum(p.exe_name)")
	} else {
		fields = append(fields, "names := set(p.exe_name)")
	}
	fields = append(fields, "files := set(f.name)")
	if i%3 == 1 {
		slices.Reverse(fields)
	}
	return strings.Join(fields, "\n           ")
}

// sliceLogMember compiles one member with the given state fields, window
// length and hop in milliseconds; a hop longer than the window (gapped) is set
// on the parsed query, since the language does not write one.
func sliceLogMember(t *testing.T, name, fields string, length, hop int) *Query {
	t.Helper()
	ast, err := parser.Parse(fmt.Sprintf(sliceLogSrc, length, fields))
	if err != nil {
		t.Fatal(err)
	}
	ast.Window.Hop = time.Duration(hop) * time.Millisecond
	q, err := CompileAST(name, ast, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q.SetClock(func() time.Time { return t0 })
	return q
}

// sliceLogSeeds are the slice log and carry suites' pinned seeds and the
// fresh one.
func sliceLogSeeds(t *testing.T) []conformance.Seed {
	return conformance.Seeds(t, 1, 2, 3, 4, 5, 6, 7, 8)
}

func TestSliceLogMatchesPerEventFold(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		for _, s := range sliceLogSeeds(t) {
			for _, routed := range []bool{false, true} {
				name := s.Label + "/serial"
				if routed {
					name = s.Label + "/routed"
				}
				if mixed {
					name = "mixed-fields/" + name
				}
				t.Run(name, func(t *testing.T) {
					runSliceLogScript(t, s.Value, routed, mixed)
				})
			}
		}
	}
	t.Run("own-log/flush-report", testOwnLogFlushReport)
	t.Run("arrival-order-errors", testArrivalOrderErrors)
}

// testArrivalOrderErrors: hits of two groups, alternating inside one slice,
// each with an argument that fails, fold run by run — one group's, then the
// other's — but every member reports their errors in the order the hits
// arrived, as folding hit by hit does.
func testArrivalOrderErrors(t *testing.T) {
	var members, twins []*Query
	var dirs []*window.Directory
	for i, spec := range [][2]int{{2000, 0}, {3000, 1000}} {
		name := fmt.Sprintf("m%d", i)
		members = append(members, sliceLogMember(t, name, sliceLogFields, spec[0], spec[1]))
		twins = append(twins, sliceLogMember(t, name, sliceLogFields, spec[0], spec[1]))
		dirs = append(dirs, new(window.Directory))
	}
	gotReport, gotErrs := errorsByQuery()
	wantReport, wantErrs := errorsByQuery()
	kc := NewKeyClass()
	log := NewSliceLog(members, kc, gotReport)
	kc.SetLogs([]*SliceLog{log})
	// sqrt(e1.amount - 500) fails on every one of them, naming the amount.
	hits := []struct {
		pid    int32
		amount float64
	}{{1, 100}, {2, 200}, {1, 300}, {2, 50}, {1, 499}, {2, 7}}
	for k, h := range hits {
		ev := &event.Event{
			Time:    t0.Add(time.Duration(k+1) * time.Millisecond),
			AgentID: "h",
			Subject: event.Process(fmt.Sprintf("p%d.exe", h.pid), h.pid),
			Op:      event.OpWrite,
			Object:  event.NetConn("10.0.0.1", 1, "10.0.0.9", 443),
			Amount:  h.amount,
		}
		hits := members[0].Hits(ev)
		offer(log, uint64(k+1), ev, hits)
		for i, q := range twins {
			q.refIngestKeyed(ev, hits, dirs[i], wantReport)
		}
	}
	// The first hit sealed at once (no member had a watermark); the rest are
	// logged, and run order is not arrival order.
	if order, _ := kc.bucket(log.hits); len(order) != len(hits)-1 || slices.IsSorted(order) {
		t.Fatalf("run order %v: want the %d logged hits out of arrival order", order, len(hits)-1)
	}
	log.Settle()
	for _, q := range members {
		got, want := gotErrs[q.Name], wantErrs[q.Name]
		if len(want) < len(hits) || !slices.Equal(got, want) {
			t.Fatalf("%s: error reports\n  log:       %v\n  per event: %v", q.Name, got, want)
		}
	}
}

// errorsByQuery returns a report that files each error under its query, and
// the errors filed so far.
func errorsByQuery() (func(error), map[string][]string) {
	by := map[string][]string{}
	return func(err error) {
		qe := err.(*QueryError)
		by[qe.Query] = append(by[qe.Query], qe.Err.Error())
	}, by
}

// runSliceLogScript drives one seed's set and stream. The serial path offers
// every event to the log (offer, solo_test.go) and each twin folds it
// (refIngestKeyed); the routed path replays what a shard is handed — the
// stream watermark, then per hit a fold, a touch (another shard owns the key)
// or a key failure, then the event's time, and now and then a batch watermark
// — and each twin brackets the same ops with refAdvance. A mixed set has two
// to eight members, each with its mixedFields.
func runSliceLogScript(t *testing.T, seed int64, routed, mixed bool) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(8)
	if mixed {
		n = max(n, 2)
	}
	var members, twins []*Query
	var dirs []*window.Directory
	var specs []string
	for i := 0; i < n; i++ {
		length := 500 * (1 + rng.Intn(8))
		hop := 0
		switch rng.Intn(3) {
		case 1: // hopping
			hop = 250 * (1 + rng.Intn(length/250))
		case 2: // gapped
			hop = length + 250*(1+rng.Intn(6))
		}
		name, fields := fmt.Sprintf("m%d", i), sliceLogFields
		if mixed {
			fields = mixedFields(i)
		}
		members = append(members, sliceLogMember(t, name, fields, length, hop))
		twins = append(twins, sliceLogMember(t, name, fields, length, hop))
		dirs = append(dirs, new(window.Directory))
		specs = append(specs, fmt.Sprintf("%d/%d ms", length, hop))
	}
	gotReport, gotErrs := errorsByQuery()
	wantReport, wantErrs := errorsByQuery()
	errsChecked := map[string]int{} // each member's errors compared so far
	kc := NewKeyClass()
	log := NewSliceLog(members, kc, gotReport)
	kc.SetLogs([]*SliceLog{log})

	keys := []int{7, 40, 0}[rng.Intn(3)] // 0: every key churns out after a few hits
	// From step burst on, burstLen hits with keys that evaluate land in one
	// slice, with no control point among them: the log reaches its cap.
	const burstLen = 6000
	burst := rng.Intn(3000)
	inBurst := func(step int) bool { return step >= burst && step < burst+burstLen }
	t.Logf("members %v, keys %d, burst at %d", specs, keys, burst)

	var got, want []string
	var seals, capFolds, merges int
	var stash [][]byte // the members' state at an earlier control point
	check := func(step int, what string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d (%s): alerts diverge:\n  log:       %v\n  per event: %v", step, what, got, want)
		}
		for i, q := range members {
			if g, w := q.Stats(), twins[i].Stats(); g != w {
				t.Fatalf("step %d (%s): %s stats diverge:\n  log:       %+v\n  per event: %+v", step, what, q.Name, g, w)
			}
			gb, err := q.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			wb, _ := twins[i].EncodeState()
			if string(gb) != string(wb) {
				t.Fatalf("step %d (%s): %s state bytes diverge (%d vs %d bytes)", step, what, q.Name, len(gb), len(wb))
			}
			// Every error of the hits folded so far is in, in hit order.
			g, w, from := gotErrs[q.Name], wantErrs[q.Name], errsChecked[q.Name]
			if !slices.Equal(g[from:], w[from:]) {
				t.Fatalf("step %d (%s): %s error reports diverge after %d:\n  log:       %d %.300v\n  per event: %d %.300v",
					step, what, q.Name, from, len(g), g[from:], len(w), w[from:])
			}
			errsChecked[q.Name] = len(g)
		}
	}
	record := func(into *[]string, alerts []*Alert) {
		for _, a := range alerts {
			*into = append(*into, renderAlert(a))
		}
	}

	now := t0.Add(time.Duration(rng.Intn(5000)) * time.Millisecond)
	var streamWM time.Time
	hasWM := false
	var seq uint64
	for step := 0; step < 3000+burstLen; step++ {
		if !inBurst(step) {
			now = now.Add(time.Duration(rng.Intn(40)) * time.Millisecond)
		}
		at := now
		if r := rng.Intn(20); r == 0 {
			at = at.Add(-time.Duration(rng.Intn(8000)) * time.Millisecond) // late, often behind closed windows
		} else if r < 4 {
			at = at.Add(-time.Duration(rng.Intn(300)) * time.Millisecond) // out of order
		}
		k := step / 8
		if keys > 0 {
			k = rng.Intn(keys)
		}
		if inBurst(step) {
			k = 1 + rng.Intn(6) // 100 / (pid % 7) evaluates
		}
		ev := &event.Event{
			Time:    at,
			AgentID: "h",
			Subject: event.Process(fmt.Sprintf("p%d.exe", k), int32(k)),
			Amount:  float64(rng.Intn(1000)),
		}
		switch r := rng.Intn(10); {
		case inBurst(step) || r < 5:
			ev.Op, ev.Object = event.OpWrite, event.NetConn("10.0.0.1", 1, "10.0.0.9", 443)
		case r < 8:
			ev.Op, ev.Object = event.OpRead, event.File(fmt.Sprintf("/d/%d", rng.Intn(4)))
		default:
			ev.Op, ev.Object = event.OpStart, event.Process("x.exe", 1) // hits nothing
		}
		hits := members[0].Hits(ev)
		seq++
		folded := len(log.hits)
		if !routed {
			record(&got, offer(log, seq, ev, hits))
			for i, q := range twins {
				record(&want, q.refIngestKeyed(ev, hits, dirs[i], wantReport))
			}
		} else {
			if hasWM {
				record(&got, log.Advance(streamWM))
				for _, q := range twins {
					record(&want, q.refAdvance(streamWM, wantReport))
				}
			}
			for _, hi := range hits {
				key, err := members[0].HitKey(hi, ev)
				touch := rng.Intn(4) == 0 // another shard owns the key (or reports its failure)
				switch {
				case touch:
					log.Touch(ev.Time)
				case err != nil:
					log.KeyFailed(ev.Time, kc.Failed(seq, hi, ev))
				default:
					log.Add(ev, hi, kc.Routed(seq, hi, window.HashKey(key), key))
				}
				for i, q := range twins {
					switch {
					case touch:
						q.winMgr.Touch(ev.Time)
					case err != nil:
						q.refKeyFailed(ev.Time, err, wantReport)
					default:
						q.refFoldGroup(ev, hi, dirs[i], dirs[i].Resolve(window.HashKey(key), key), wantReport)
					}
				}
			}
			record(&got, log.Advance(ev.Time))
			for _, q := range twins {
				record(&want, q.refAdvance(ev.Time, wantReport))
			}
			if !hasWM || ev.Time.After(streamWM) {
				streamWM, hasWM = ev.Time, true
			}
			if rng.Intn(25) == 0 { // a batch boundary: AdvanceAll
				record(&got, log.Advance(streamWM))
				for _, q := range twins {
					record(&want, q.refAdvance(streamWM, wantReport))
				}
			}
		}
		if folded == sliceLogCap-1 && len(log.hits) == 0 && log.hasPend {
			capFolds++
		}
		if len(log.hits) >= sliceLogCap {
			t.Fatalf("step %d: the log holds %d hits, cap %d", step, len(log.hits), sliceLogCap)
		}
		switch {
		case !log.hasPend:
			seals++
			check(step, "seal")
		case !inBurst(step) && rng.Intn(60) == 0:
			log.Settle() // a control point mid-slice
			seals++
			check(step, "control point")
			switch r := rng.Intn(4); {
			case r == 0:
				stash = stash[:0]
				for _, q := range members {
					blob, err := q.EncodeState()
					if err != nil {
						t.Fatal(err)
					}
					stash = append(stash, blob)
				}
			case r == 1 && len(stash) > 0:
				// Merge an earlier checkpoint back in, as restoring several
				// shards' blobs into one replica does: its windows may lie
				// behind the watermark, and close at the next advance.
				for i, q := range members {
					if err := q.RestoreState(stash[i], nil, false); err != nil {
						t.Fatal(err)
					}
					if err := twins[i].RestoreState(stash[i], nil, false); err != nil {
						t.Fatal(err)
					}
				}
				merges++
				check(step, "merge")
			}
		}
	}
	log.Settle()
	check(-1, "final settle")
	for i, q := range members {
		record(&got, q.Flush(gotReport))
		record(&want, twins[i].Flush(wantReport))
	}
	check(-1, "flush")
	late, errs := int64(0), 0
	for _, q := range members {
		late += q.Stats().LateHits
		errs += len(gotErrs[q.Name])
	}
	t.Logf("%d alerts, %d errors, %d late hits, %d seals checked, %d cap folds, %d merges, %d directory resets",
		len(got), errs, late, seals, capFolds, merges, kc.dir.Epoch())
	if len(got) == 0 || seals < 10 || late == 0 || capFolds == 0 || errs == 0 {
		t.Fatalf("the script exercised too little: %d alerts, %d seals, %d late hits, %d cap folds, %d errors", len(got), seals, late, capFolds, errs)
	}
	if mixed {
		// The table shares names's program; only member 0's sum refuses it.
		for i, q := range members {
			if refused := slices.ContainsFunc(gotErrs[q.Name], func(e string) bool {
				return strings.Contains(e, "sum requires numeric input, got string")
			}); refused != (i == 0) {
				t.Fatalf("%s: refused a string in sum: %v, want %v", q.Name, refused, i == 0)
			}
		}
		if w := log.width; w <= len(members[1].argProgs[0]) {
			t.Fatalf("the program table is %d wide, no wider than member 1's %d arguments", w, len(members[1].argProgs[0]))
		}
	}
}

// testOwnLogFlushReport: a query used on its own folds its last slice at
// Flush, so Flush's report — not the last soloIngest's — receives the errors the
// slice's arguments raise, and the two reports together hold the per-event
// fold's errors in order.
func testOwnLogFlushReport(t *testing.T) {
	q, twin := sliceLogMember(t, "own", sliceLogFields, 2000, 0), sliceLogMember(t, "own", sliceLogFields, 2000, 0)
	d := new(window.Directory)
	var ingestErrs, flushErrs, want []string
	ingestReport := func(err error) { ingestErrs = append(ingestErrs, err.Error()) }
	flushReport := func(err error) { flushErrs = append(flushErrs, err.Error()) }
	wantReport := func(err error) { want = append(want, err.Error()) }
	var got, wantAlerts []string
	record := func(into *[]string, alerts []*Alert) {
		for _, a := range alerts {
			*into = append(*into, renderAlert(a))
		}
	}
	feed := func(at time.Time, k int, read bool) {
		ev := &event.Event{Time: at, AgentID: "h", Subject: event.Process(fmt.Sprintf("p%d.exe", k), int32(k)), Amount: float64(10 * k)}
		ev.Op, ev.Object = event.OpWrite, event.NetConn("10.0.0.1", 1, "10.0.0.9", 443)
		if read { // count(e1) and sum(e1.amount) fail on an e2 hit
			ev.Op, ev.Object = event.OpRead, event.File("/d/0")
		}
		hits := q.Hits(ev)
		record(&got, q.soloIngest(ev, hits, ingestReport))
		record(&wantAlerts, twin.refIngestKeyed(ev, hits, d, wantReport))
	}
	now := t0
	for k := 0; k < 300; k++ {
		now = now.Add(37 * time.Millisecond)
		feed(now, 1+k%5, k%3 == 0)
	}
	// The last reads share the last event's time: no seal follows them.
	last := len(want)
	for k := 1; k <= 3; k++ {
		feed(now, k, true)
	}
	raised := slices.Clone(want[last:])
	record(&got, q.soloFlush(flushReport))
	record(&wantAlerts, twin.Flush(wantReport))
	if fmt.Sprint(got) != fmt.Sprint(wantAlerts) {
		t.Fatalf("alerts diverge:\n  log:       %v\n  per event: %v", got, wantAlerts)
	}
	if len(raised) == 0 || len(flushErrs) < len(raised) || !slices.Equal(flushErrs[len(flushErrs)-len(raised):], raised) {
		t.Fatalf("Flush's report got %v, want it to end with the last slice's %v", flushErrs, raised)
	}
	if all := append(slices.Clone(ingestErrs), flushErrs...); !slices.Equal(all, want) {
		t.Fatalf("error reports diverge:\n  log:       %d %.300v\n  per event: %d %.300v", len(all), all, len(want), want)
	}
	if g, w := q.Stats(), twin.Stats(); g != w {
		t.Fatalf("stats diverge:\n  log:       %+v\n  per event: %+v", g, w)
	}
	t.Logf("%d errors at Ingest, %d at Flush, %d alerts", len(ingestErrs), len(flushErrs), len(got))
}

// TestSliceLogBoundedByCap: a lone query with an hour-long window, fed 100 000
// hits inside one slice, never holds more than sliceLogCap of them in its log
// — a long window keeps no more events alive than a short one — and folds all
// of them.
func TestSliceLogBoundedByCap(t *testing.T) {
	q := compile(t, "hour", `proc p write ip i as e #time(1 h)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 1000000000000
return p, ss.amt`)
	conn := event.NetConn("10.0.0.1", 1, "10.0.0.9", 443)
	peak := 0
	const n = 100000
	for k := 0; k < n; k++ {
		e := ev(t0.Add(time.Duration(k)*time.Millisecond), "h", event.Process(fmt.Sprintf("p%d.exe", k%50), int32(k%50)), event.OpWrite, conn, 1)
		if alerts := q.Process(e, nil); len(alerts) != 0 {
			t.Fatalf("event %d: %d alerts", k, len(alerts))
		}
		peak = max(peak, len(soloOf(q).log.hits))
	}
	if peak > sliceLogCap {
		t.Errorf("the log held %d hits, cap %d", peak, sliceLogCap)
	}
	if st := q.Stats(); st.PatternHits != n || st.Events != n {
		t.Errorf("stats %+v: want %d hits and events", st, n)
	}
	t.Logf("log peaked at %d hits (cap %d) over %d hits in one slice", peak, sliceLogCap, n)
}
