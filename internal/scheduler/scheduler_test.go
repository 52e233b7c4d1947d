package scheduler

import (
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"

	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/window"
)

var base = time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

func compile(t *testing.T, name, src string) *engine.Query {
	t.Helper()
	q, err := engine.Compile(name, src, engine.CompileOptions{})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return q
}

// Compatible query family: same pattern structure, increasingly strict
// constraints. q0 (no constraint) subsumes q1 subsumes q2.
const (
	qAnyStart = `proc p start proc q2 as e return p, q2`
	qCmdStart = `proc p["%cmd.exe"] start proc q2 as e return p, q2`
	qCmdOsql  = `proc p["%cmd.exe"] start proc q2["%osql.exe"] as e return p, q2`
	qWriteIP  = `proc p write ip i as e return p`
)

func TestGroupingBySubsumption(t *testing.T) {
	s := New(nil, true)
	if err := s.Add(compile(t, "strict", qCmdOsql)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(compile(t, "mid", qCmdStart)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(compile(t, "weak", qAnyStart)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(compile(t, "other", qWriteIP)); err != nil {
		t.Fatal(err)
	}
	if s.GroupCount() != 2 {
		t.Fatalf("groups = %d, want 2 (start-family + write-ip)", s.GroupCount())
	}
	groups := s.Groups()
	deps, ok := groups["weak"]
	if !ok {
		t.Fatalf("weakest query should be master: %v", groups)
	}
	if len(deps) != 2 {
		t.Errorf("dependents = %v, want strict+mid", deps)
	}
}

func TestMasterPromotion(t *testing.T) {
	s := New(nil, true)
	_ = s.Add(compile(t, "strict", qCmdOsql))
	// Weaker query arrives later: must take over as master.
	_ = s.Add(compile(t, "weak", qAnyStart))
	groups := s.Groups()
	if _, ok := groups["weak"]; !ok {
		t.Fatalf("weak should be master: %v", groups)
	}
}

func TestSharingProducesSameAlerts(t *testing.T) {
	events := startEvents()

	shared := New(nil, true)
	_ = shared.Add(compile(t, "weak", qAnyStart))
	_ = shared.Add(compile(t, "mid", qCmdStart))
	_ = shared.Add(compile(t, "strict", qCmdOsql))

	solo := New(nil, false)
	_ = solo.Add(compile(t, "weak", qAnyStart))
	_ = solo.Add(compile(t, "mid", qCmdStart))
	_ = solo.Add(compile(t, "strict", qCmdOsql))

	countByQuery := func(s *Scheduler) map[string]int {
		got := map[string]int{}
		for _, ev := range events {
			for _, a := range s.Process(ev) {
				got[a.Query]++
			}
		}
		for _, a := range s.Flush() {
			got[a.Query]++
		}
		return got
	}
	a, b := countByQuery(shared), countByQuery(solo)
	for k := range a {
		if a[k] != b[k] {
			t.Errorf("query %s: shared=%d solo=%d", k, a[k], b[k])
		}
	}
	if a["weak"] == 0 || a["strict"] == 0 {
		t.Errorf("expected alerts from both ends of the family: %v", a)
	}
	// Stricter queries must alert on a subset.
	if !(a["weak"] >= a["mid"] && a["mid"] >= a["strict"]) {
		t.Errorf("subsumption violated in alert counts: %v", a)
	}
}

func startEvents() []*event.Event {
	var out []*event.Event
	procs := []struct {
		parent, child string
	}{
		{"cmd.exe", "osql.exe"},
		{"cmd.exe", "ping.exe"},
		{"explorer.exe", "notepad.exe"},
		{"cmd.exe", "osql.exe"},
		{"bash", "ls"},
	}
	for i, pc := range procs {
		out = append(out, &event.Event{
			Time:    base.Add(time.Duration(i) * time.Second),
			AgentID: "h1",
			Subject: event.Process(pc.parent, int32(100+i)),
			Op:      event.OpStart,
			Object:  event.Process(pc.child, int32(200+i)),
		})
	}
	return out
}

func TestCopyAccounting(t *testing.T) {
	s := New(nil, true)
	_ = s.Add(compile(t, "weak", qAnyStart))
	_ = s.Add(compile(t, "mid", qCmdStart))
	_ = s.Add(compile(t, "strict", qCmdOsql))
	evs := startEvents()
	// Non-matching noise: dependents never see these events at all — only
	// the master evaluates them. This is where the scheme saves CPU.
	for i := 0; i < 5; i++ {
		evs = append(evs, &event.Event{
			Time:    base.Add(time.Duration(10+i) * time.Second),
			AgentID: "h1",
			Subject: event.Process("svchost.exe", 9),
			Op:      event.OpWrite,
			Object:  event.File(`C:\Windows\log`),
		})
	}
	for _, ev := range evs {
		s.Process(ev)
	}
	st := s.Stats()
	if st.Events != 10 {
		t.Errorf("events = %d", st.Events)
	}
	// One group: copies = events; naive = 3× events.
	if st.StreamCopies != 10 || st.NaiveCopies != 30 {
		t.Errorf("copies = %d/%d, want 10/30", st.StreamCopies, st.NaiveCopies)
	}
	if got := st.SharingRatio(); got != 3 {
		t.Errorf("sharing ratio = %v, want 3", got)
	}
	// Dependents evaluate patterns only on master hits, so pattern evals
	// must be below the naive count: master 10 + 2 deps × 5 hits = 20 < 30.
	if st.PatternEvals >= st.NaivePatternEvals {
		t.Errorf("pattern evals = %d, naive = %d: no saving", st.PatternEvals, st.NaivePatternEvals)
	}
}

// Sharing stats must count only active queries, consistently across
// NaiveCopies, StreamCopies, and NaivePatternEvals: pausing half a group
// must not inflate SharingRatio.
func TestPausedStatsConsistency(t *testing.T) {
	s := New(nil, true)
	_ = s.Add(compile(t, "weak", qAnyStart))
	_ = s.Add(compile(t, "mid", qCmdStart))
	_ = s.Add(compile(t, "strict", qCmdOsql))
	evs := startEvents() // 5 events, all matching the master

	if !s.SetPaused("mid", true) {
		t.Fatal("pause mid failed")
	}
	for _, ev := range evs {
		s.Process(ev)
	}
	st := s.Stats()
	// 2 of 3 queries active: naive copies count exactly those.
	if st.NaiveCopies != 2*int64(len(evs)) {
		t.Errorf("NaiveCopies = %d, want %d", st.NaiveCopies, 2*len(evs))
	}
	if st.StreamCopies != int64(len(evs)) {
		t.Errorf("StreamCopies = %d, want %d", st.StreamCopies, len(evs))
	}
	if got := st.SharingRatio(); got != 2 {
		t.Errorf("SharingRatio = %v, want 2 (paused query must not count)", got)
	}
	// Each query has 1 pattern: naive = active queries × events.
	if st.NaivePatternEvals != 2*int64(len(evs)) {
		t.Errorf("NaivePatternEvals = %d, want %d", st.NaivePatternEvals, 2*len(evs))
	}

	// Fully pausing the group freezes every sharing counter.
	for _, name := range []string{"weak", "strict"} {
		if !s.SetPaused(name, true) {
			t.Fatalf("pause %s failed", name)
		}
	}
	for _, ev := range evs {
		s.Process(ev)
	}
	st2 := s.Stats()
	if st2.NaiveCopies != st.NaiveCopies || st2.StreamCopies != st.StreamCopies ||
		st2.PatternEvals != st.PatternEvals || st2.NaivePatternEvals != st.NaivePatternEvals {
		t.Errorf("fully paused group still counted: %+v -> %+v", st, st2)
	}
	if st2.Events != 2*int64(len(evs)) {
		t.Errorf("Events = %d, want %d", st2.Events, 2*len(evs))
	}
}

// A paused master still evaluates patterns for its active dependents, and
// the naive baseline then counts only the dependents.
func TestPausedMasterStillFeedsDependents(t *testing.T) {
	s := New(nil, true)
	_ = s.Add(compile(t, "weak", qAnyStart))
	_ = s.Add(compile(t, "strict", qCmdOsql))
	_ = s.SetPaused("weak", true)
	evs := startEvents()
	var strictAlerts, weakAlerts int
	for _, ev := range evs {
		for _, a := range s.Process(ev) {
			switch a.Query {
			case "strict":
				strictAlerts++
			case "weak":
				weakAlerts++
			}
		}
	}
	if weakAlerts != 0 {
		t.Errorf("paused master alerted %d times", weakAlerts)
	}
	if strictAlerts != 2 {
		t.Errorf("dependent alerts = %d, want 2 (cmd->osql pairs)", strictAlerts)
	}
	st := s.Stats()
	if st.NaiveCopies != int64(len(evs)) {
		t.Errorf("NaiveCopies = %d, want %d (only the dependent is active)", st.NaiveCopies, len(evs))
	}
	// The master's pattern work is real and still counted.
	if st.PatternEvals < int64(len(evs)) {
		t.Errorf("PatternEvals = %d, want >= %d", st.PatternEvals, len(evs))
	}
}

// resolve turns one event's hit set into the ops a one-shard router would
// hand that shard: per variant set, every stateful hit a fold under the key
// (and hash) the evaluating replica's key programs give — a failing key a
// keyErr — and a rule set's hits one hits op, in set order, like
// partitioner.routeEvent.
func resolve(t *testing.T, evalSide *Scheduler, ev *event.Event, hs *HitSet) []Op {
	t.Helper()
	names := make([]string, len(hs.Layout.Slots))
	for name, slot := range hs.Layout.Slots {
		names[slot] = name
	}
	var ops []Op
	for si, vs := range hs.Layout.Sets {
		var h []int
		var q *engine.Query
		for _, slot := range vs.Slots {
			if len(hs.Hits[slot]) > 0 {
				h = hs.Hits[slot]
				var ok bool
				if q, ok = evalSide.Query(names[slot]); !ok {
					t.Fatalf("slot %d (%s) not registered on the evaluating side", slot, names[slot])
				}
				break
			}
		}
		if len(h) == 0 {
			continue
		}
		if !q.Stateful() {
			op := Op{Kind: OpHits, Set: int32(si)}
			for _, hi := range h {
				op.Arg |= 1 << uint(hi)
			}
			ops = append(ops, op)
			continue
		}
		for _, hi := range h {
			op := Op{Kind: OpFold, Set: int32(si), Pat: uint8(hi)}
			var err error
			if op.Key, err = q.HitKey(hi, ev); err != nil {
				op.Kind = OpKeyErr
			}
			op.Arg = uint64(window.HashKey(op.Key))
			ops = append(ops, op)
		}
	}
	return ops
}

const qSumByProc = `proc p start proc c as e #time(2 s)
state ss { n := count(e) } group by p
alert ss.n > 0
return p, ss.n`

// EvaluateBatch + Apply across replica schedulers — the runtime's
// resolve→fold split — must be alert-for-alert identical to serial Process,
// with pattern evaluation counted only on the evaluating side and no key
// evaluated on the folding side. The benchmark-only ProcessWithHits fold is
// held to the same bar. Both consume each hit set within its batch: that is
// the lifetime EvaluateBatch promises.
func TestEvaluateBatchApplyEquivalence(t *testing.T) {
	mk := func() *Scheduler {
		s := New(nil, true)
		_ = s.Add(compile(t, "weak", qAnyStart))
		_ = s.Add(compile(t, "mid", qCmdStart))
		_ = s.Add(compile(t, "strict", qCmdOsql))
		_ = s.Add(compile(t, "other", qWriteIP))
		_ = s.Add(compile(t, "counted", qSumByProc))
		return s
	}
	serial, evalSide, routedSide, hitsSide := mk(), mk(), mk(), mk()

	evs := startEvents()
	want, routed, withHits := map[string]int{}, map[string]int{}, map[string]int{}
	for _, ev := range evs {
		for _, a := range serial.Process(ev) {
			want[a.Query]++
		}
	}
	var wm event.Watermark
	for i, hs := range evalSide.EvaluateBatch(evs) {
		ev := evs[i]
		stamp := wm.Through(ev.Time)
		if hs != nil { // the router buffers no entry for an event that hit nothing
			for _, a := range routedSide.Apply(hs.Layout, ev, stamp, resolve(t, evalSide, ev, hs)) {
				routed[a.Query]++
			}
		}
		for _, a := range hitsSide.ProcessWithHits(ev, hs) {
			withHits[a.Query]++
		}
	}
	last, _ := wm.Time()
	for _, a := range routedSide.AdvanceAll(last) {
		routed[a.Query]++
	}
	if want["counted"] == 0 || want["strict"] == 0 {
		t.Fatalf("serial run must alert on the stateful and the rule queries: %v", want)
	}
	for k := range want {
		if routed[k] != want[k] || withHits[k] != want[k] {
			t.Errorf("query %s: routed=%d with-hits=%d serial=%d", k, routed[k], withHits[k], want[k])
		}
	}
	if es := evalSide.Stats(); es.PatternEvals != serial.Stats().PatternEvals {
		t.Errorf("eval-side PatternEvals = %d, serial = %d", es.PatternEvals, serial.Stats().PatternEvals)
	}
	for name, side := range map[string]*Scheduler{"routed": routedSide, "with-hits": hitsSide} {
		if n := side.Stats().PatternEvals; n != 0 {
			t.Errorf("%s-side PatternEvals = %d, want 0", name, n)
		}
	}
	if n := routedSide.Stats().KeyEvals; n != 0 {
		t.Errorf("routed-side KeyEvals = %d, want 0: a shard folds under the key it is handed", n)
	}
	if n, hits := serial.Stats().KeyEvals, int64(len(evs)); n != hits {
		t.Errorf("serial KeyEvals = %d, want %d (one per hit of the one stateful query)", n, hits)
	}
	// Every key resolved is probed once, on whichever side folds it.
	for name, side := range map[string]*Scheduler{"serial": serial, "routed": routedSide, "with-hits": hitsSide} {
		if n := side.Stats().GroupProbes; n != int64(len(evs)) {
			t.Errorf("%s-side GroupProbes = %d, want %d (one per hit of the one stateful query)", name, n, len(evs))
		}
	}
}

// A variant set is one op: a scheduler group's master and its equal
// dependents of one key class and placement share a set, so one fold op folds
// all of them, each under its own window length — and a member in another key
// class, or not equal to the master, is a set of its own.
func TestVariantSetsFoldAsOne(t *testing.T) {
	sum := func(w int, key string) string {
		return fmt.Sprintf(`proc p start proc c as e #time(%d s)
state ss { n := count(e) } group by %s
alert ss.n > 0
return ss.n`, w, key)
	}
	mk := func() *Scheduler {
		s := New(nil, true)
		for _, q := range []struct{ name, src string }{
			{"v2", sum(2, "p")}, {"v3", sum(3, "p")}, {"v5", sum(5, "p")},
			{"by-child", sum(2, "c")}, // same group, another key class
			{"strict", `proc p["%cmd.exe"] start proc c as e #time(2 s)
state ss { n := count(e) } group by p
alert ss.n > 0
return ss.n`}, // same class, stricter: not equal
		} {
			if err := s.Add(compile(t, q.name, q.src)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	serial, evalSide, shard := mk(), mk(), mk()
	layout := evalSide.layoutLocked()
	setOf := map[string]int{}
	for i, vs := range layout.Sets {
		for _, slot := range vs.Slots {
			for name, sl := range layout.Slots {
				if sl == slot {
					setOf[name] = i
				}
			}
		}
	}
	if len(layout.Sets) != 3 || setOf["v2"] != setOf["v3"] || setOf["v3"] != setOf["v5"] ||
		setOf["by-child"] == setOf["v2"] || setOf["strict"] == setOf["v2"] || setOf["strict"] == setOf["by-child"] {
		t.Fatalf("sets %+v (by query: %v): want {v2 v3 v5} {by-child} {strict}", layout.Sets, setOf)
	}
	if c := layout.Sets[setOf["v2"]].Class; c != layout.Sets[setOf["strict"]].Class || c == layout.Sets[setOf["by-child"]].Class {
		t.Errorf("classes %+v: the subject-keyed queries must share one, the child-keyed one have its own", layout.Sets)
	}
	want, got := map[string]int{}, map[string]int{}
	evs := startEvents()
	var wm event.Watermark
	for i, hs := range evalSide.EvaluateBatch(evs) {
		ev := evs[i]
		for _, a := range serial.Process(ev) {
			want[a.Query]++
		}
		ops := resolve(t, evalSide, ev, hs)
		folds := 0
		for _, op := range ops {
			if op.Kind == OpFold && int(op.Set) == setOf["v2"] {
				folds++
			}
		}
		if folds != 1 {
			t.Fatalf("event %d: %d fold ops for the variant set, want 1: %+v", i, folds, ops)
		}
		for _, a := range shard.Apply(hs.Layout, ev, wm.Through(ev.Time), ops) {
			got[a.Query]++
		}
	}
	for _, a := range serial.Flush() {
		want[a.Query]++
	}
	for _, a := range shard.Flush() {
		got[a.Query]++
	}
	if !maps.Equal(got, want) || want["v5"] == 0 || want["strict"] == 0 {
		t.Errorf("applied %v, serial %v", got, want)
	}
	st := shard.Stats()
	if ss := serial.Stats(); st.GroupProbes > ss.GroupProbes || ss.GroupProbes != ss.KeyEvals {
		t.Errorf("probes: %d applying, serial %d for %d keys evaluated", st.GroupProbes, ss.GroupProbes, ss.KeyEvals)
	}
}

// A replica runs exactly the ops an entry names: the same event reaches a
// shard for one query's sake without the shard's other replicas folding it.
func TestApplyRunsOnlyNamedOps(t *testing.T) {
	evalSide, shard := New(nil, true), New(nil, true)
	for _, s := range []*Scheduler{evalSide, shard} {
		_ = s.Add(compile(t, "by-event", qWriteIP))
		_ = s.Add(compile(t, "pinned", `proc p write ip i as e return distinct p`))
	}
	ev := &event.Event{
		Time: base, AgentID: "h", Subject: event.Process("x.exe", 1), Op: event.OpWrite,
		Object: event.NetConn("1.1.1.1", 1, "2.2.2.2", 2), Amount: 10,
	}
	hs := evalSide.EvaluateBatch([]*event.Event{ev})[0]
	if hs == nil {
		t.Fatal("no hits for a matching event")
	}
	ops := resolve(t, evalSide, ev, hs)
	if len(ops) != 2 {
		t.Fatalf("ops = %+v, want one hits op per query", ops)
	}
	count := func(alerts []*engine.Alert) map[string]int {
		out := map[string]int{}
		for _, a := range alerts {
			out[a.Query]++
		}
		return out
	}
	pinnedOnly := ops[:1]
	if hs.Layout.Sets[pinnedOnly[0].Set].Slots[0] != hs.Layout.Slots["pinned"] {
		pinnedOnly = ops[1:]
	}
	if got := count(shard.Apply(hs.Layout, ev, ev.Time, pinnedOnly)); got["by-event"] != 0 || got["pinned"] != 1 {
		t.Errorf("entry naming only the pinned query raised %v", got)
	}
	if got := count(shard.Apply(hs.Layout, ev, ev.Time, ops)); got["by-event"] != 1 {
		t.Errorf("entry naming both queries raised %v, want the by-event query to fire", got)
	}
}

// A registry change between two batches re-stamps the layout; ops resolved
// under the new layout must land on the right replicas of a consumer that
// applied the same change.
func TestHitSetLayoutVersioning(t *testing.T) {
	evalSide := New(nil, true)
	shard := New(nil, true)
	for _, s := range []*Scheduler{evalSide, shard} {
		_ = s.Add(compile(t, "weak", qAnyStart))
		_ = s.Add(compile(t, "strict", qCmdOsql))
	}
	evs := startEvents()
	hs1 := evalSide.EvaluateBatch(evs[:1])[0]
	if hs1 == nil || hs1.Layout == nil {
		t.Fatal("no hits for a matching event")
	}
	l1 := hs1.Layout // a HitSet is not read past its batch; its layout is immutable and may be kept

	// Swap strict for a different residual constraint on both sides.
	repl := compile(t, "strict", qCmdStart)
	if err := evalSide.Swap("strict", repl, false); err != nil {
		t.Fatal(err)
	}
	repl2 := compile(t, "strict", qCmdStart)
	if err := shard.Swap("strict", repl2, false); err != nil {
		t.Fatal(err)
	}
	hs2 := evalSide.EvaluateBatch(evs[:1])[0]
	if hs2 == nil || hs2.Layout.Version <= l1.Version {
		t.Fatalf("layout version not bumped by swap: %v -> %v", l1.Version, hs2.Layout.Version)
	}
	if hs2.Layout == l1 {
		t.Fatal("swap must produce a fresh layout")
	}
	// The consumer resolves slots against whichever layout the entry carries.
	if alerts := shard.Apply(hs2.Layout, evs[0], evs[0].Time, resolve(t, evalSide, evs[0], hs2)); len(alerts) != 2 {
		t.Errorf("alerts after swap = %d, want 2 (weak + swapped strict)", len(alerts))
	}
}

// EvaluateBatch's results live in scratch: they are good until the next
// evaluation — EvaluateBatch or Process — and no longer. A consumer one batch behind must be told so — a panic, not a
// fold of whatever event's hits the scratch holds by then.
func TestStaleHitSetPanics(t *testing.T) {
	evalSide, foldSide := New(nil, true), New(nil, true)
	for _, s := range []*Scheduler{evalSide, foldSide} {
		_ = s.Add(compile(t, "weak", qAnyStart))
	}
	evs := startEvents()
	held := evalSide.EvaluateBatch(evs[:2])
	hs := held[0]
	foldSide.ProcessWithHits(evs[0], hs) // live: fine
	if alerts := foldSide.ProcessWithHits(evs[1], nil); len(alerts) != 0 {
		t.Errorf("nil hit set raised %d alerts", len(alerts))
	}
	fresh := evalSide.EvaluateBatch(evs[2:4])
	if fresh[0] == hs {
		t.Fatal("consecutive batches must not hand out the same header: a stale pointer would read as live")
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s did not panic", what)
			} else if msg := fmt.Sprint(r); !strings.Contains(msg, "stale HitSet") {
				t.Errorf("%s panicked with %q", what, msg)
			}
		}()
		f()
	}
	mustPanic("ProcessWithHits on a HitSet held across a batch", func() { foldSide.ProcessWithHits(evs[0], hs) })
	mustPanic("a HitSet read out of a held result slice", func() { held[1].AssertLive() })
	fresh[0].AssertLive()
	// Process evaluates its event in the same scratch: what the last batch
	// handed out is stale after it too.
	evalSide.Process(evs[0])
	mustPanic("a HitSet held across a Process", func() { fresh[0].AssertLive() })
}

func TestNoSharingMode(t *testing.T) {
	s := New(nil, false)
	_ = s.Add(compile(t, "a", qAnyStart))
	_ = s.Add(compile(t, "b", qCmdStart))
	if s.GroupCount() != 2 {
		t.Errorf("groups = %d, want 2 without sharing", s.GroupCount())
	}
	st := s.Stats()
	_ = st
	for _, ev := range startEvents() {
		s.Process(ev)
	}
	st = s.Stats()
	if st.StreamCopies != st.NaiveCopies {
		t.Errorf("no-sharing copies %d != naive %d", st.StreamCopies, st.NaiveCopies)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	s := New(nil, true)
	_ = s.Add(compile(t, "a", qAnyStart))
	if err := s.Add(compile(t, "a", qCmdStart)); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestRemove(t *testing.T) {
	s := New(nil, true)
	_ = s.Add(compile(t, "weak", qAnyStart))
	_ = s.Add(compile(t, "strict", qCmdOsql))
	if !s.Remove("strict") {
		t.Fatal("remove dependent failed")
	}
	if s.QueryCount() != 1 || s.GroupCount() != 1 {
		t.Errorf("after remove: queries=%d groups=%d", s.QueryCount(), s.GroupCount())
	}
	// Removing the master re-groups survivors.
	_ = s.Add(compile(t, "strict", qCmdOsql))
	_ = s.Add(compile(t, "mid", qCmdStart))
	if !s.Remove("weak") {
		t.Fatal("remove master failed")
	}
	if s.QueryCount() != 2 {
		t.Errorf("queries = %d, want 2", s.QueryCount())
	}
	groups := s.Groups()
	if _, ok := groups["mid"]; !ok {
		t.Errorf("mid should be promoted master: %v", groups)
	}
	if s.Remove("nope") {
		t.Error("removing unknown query succeeded")
	}
}

func TestDependentWindowsAdvance(t *testing.T) {
	// A stateful dependent must close windows even when the master's hits
	// never match it.
	s := New(nil, true)
	_ = s.Add(compile(t, "master", `proc p write ip i as e return p`))
	_ = s.Add(compile(t, "dep", `proc p["%never.exe"] write ip i as e #time(1 min)
state ss { n := count(e) } group by p
alert ss.n > 100
return p`))
	if s.GroupCount() != 1 {
		t.Fatalf("groups = %d, want 1", s.GroupCount())
	}
	conn := event.NetConn("1.1.1.1", 1, "2.2.2.2", 2)
	for i := 0; i < 10; i++ {
		alerts := s.Process(&event.Event{
			Time:    base.Add(time.Duration(i) * 20 * time.Second),
			AgentID: "h", Subject: event.Process("x.exe", 1), Op: event.OpWrite, Object: conn, Amount: 10,
		})
		// The master (a plain rule query) alerts on every match; the
		// stateful dependent must stay silent but still observe the
		// watermark (no stuck windows, no panic).
		for _, a := range alerts {
			if a.Query == "dep" {
				t.Fatalf("dependent alerted: %v", a)
			}
		}
	}
	if got := s.Stats().Alerts; got != 10 {
		t.Errorf("master alerts = %d, want 10", got)
	}
}

func TestManyQueriesScale(t *testing.T) {
	// 64 variants in one family must form one group.
	s := New(nil, true)
	_ = s.Add(compile(t, "master", qAnyStart))
	for i := 0; i < 63; i++ {
		src := fmt.Sprintf(`proc p["%%cmd.exe"] start proc q2[pid > %d] as e return p, q2`, i)
		if err := s.Add(compile(t, fmt.Sprintf("v%d", i), src)); err != nil {
			t.Fatal(err)
		}
	}
	if s.GroupCount() != 1 {
		t.Errorf("groups = %d, want 1", s.GroupCount())
	}
	for _, ev := range startEvents() {
		s.Process(ev)
	}
	st := s.Stats()
	if st.SharingRatio() < 50 {
		t.Errorf("sharing ratio = %.1f, want ~64", st.SharingRatio())
	}
}
