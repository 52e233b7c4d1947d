package scheduler

// The evaluation plan — the agentid index layoutLocked derives, agentKey and
// the batch buckets — decides which masters run on an event, and one
// evaluator runs them for a router batch and for serial Process's batch of
// one. This file keeps the evaluation both replaced, every active master over
// every event one event at a time and then each dependent's residual
// re-examination of the master's hits, as the oracle the evaluator is held to
// on both paths, and the randomised cases the engine-level half of the fence
// (dispatch_engines_test.go) replays through started runtimes.

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"saql/internal/codec"
	"saql/internal/conformance"
	"saql/internal/event"
)

// refEvaluate is the un-indexed, per-event sweep: each query's hit set for ev
// by name (paused queries included, as the evaluator hands them out), and the
// counters that sweep counts. A master's hits are its residual hits over all
// of its patterns, so the oracle never runs MatchBatch.
func refEvaluate(s *Scheduler, ev *event.Event) (map[string][]int, Stats) {
	hits := map[string][]int{}
	var st Stats
	for _, g := range s.groups {
		masterActive := !g.master.Paused()
		active := 0
		if masterActive {
			active++
		}
		for _, d := range g.dependents {
			if !d.q.Paused() {
				active++
			}
		}
		if active == 0 {
			continue
		}
		st.StreamCopies++
		st.NaiveCopies += int64(active)
		nPat := int64(len(g.master.Patterns()))
		st.PatternEvals += nPat
		if masterActive {
			st.NaivePatternEvals += nPat
		}
		every := make([]int, nPat)
		for p := range every {
			every[p] = p
		}
		mh, _ := g.master.ResidualHits(nil, ev, every)
		if len(mh) > 0 {
			hits[g.master.Name] = mh
		}
		for _, d := range g.dependents {
			if d.q.Paused() {
				continue
			}
			st.NaivePatternEvals += int64(len(d.q.Patterns()))
			if len(mh) == 0 {
				continue
			}
			if d.equal {
				hits[d.q.Name] = mh
				continue
			}
			h, evals := d.q.ResidualHits(nil, ev, mh)
			st.PatternEvals += int64(evals)
			if len(h) > 0 {
				hits[d.q.Name] = h
			}
		}
	}
	return hits, st
}

// byName renders a slot-indexed hit table by query name, empty sets left out.
func byName(l *Layout, hits [][]int) map[string][]int {
	out := map[string][]int{}
	for name, slot := range l.Slots {
		if slot < len(hits) && len(hits[slot]) > 0 {
			out[name] = slices.Clone(hits[slot])
		}
	}
	return out
}

// processHits is Process, handing back the hit sets its batch of one
// evaluated to.
func processHits(s *Scheduler, ev *event.Event) map[string][]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Events++
	h := s.evaluateBatchLocked([]*event.Event{ev})[0]
	out := byName(s.layout, h)
	s.foldLocked(ev, s.resolveLocked(ev, h))
	return out
}

// DispatchCase is one randomised query set, stream and control script of the
// agentid dispatch fence.
type DispatchCase struct {
	Sharing bool
	Queries []DispatchQuery // registered before the first event
	Events  []*event.Event
	Script  []DispatchStep // in stream order
}

// DispatchQuery is a query's registration name and source.
type DispatchQuery struct{ Name, Src string }

// DispatchStep is a control applied before Events[At]: "pause" or "resume"
// Name, "swap" Name for Src, or "remove" Name.
type DispatchStep struct {
	At        int
	Kind      string
	Name, Src string
}

// dispatchHosts are the agentids the fence's queries pin and its events
// carry: plain ASCII, a non-ASCII one, the Kelvin sign (whose lower case is
// the ASCII k) and one longer than agentKey's stack buffer. Queries and
// events spell each in a random mix of cases.
var dispatchHosts = []string{
	"host-1", "host-2", "host-3",
	"ħost-4",
	"\u212a-5",
	strings.Repeat("ab", 40) + "-6",
}

// otherHosts are agentids no query pins: an ASCII one, the empty one and one
// that is not UTF-8.
var otherHosts = []string{"host-7", "", "\xffhost-1"}

// spell writes s with each letter upper- or lower-cased at random.
func spell(rng *rand.Rand, s string) string {
	var sb strings.Builder
	for _, r := range s {
		if rng.Intn(2) == 0 {
			r = unicode.ToUpper(r)
		} else {
			r = unicode.ToLower(r)
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// randomGlobals draws a query's global constraints: none, an agentid
// equality under any of the attribute's names, a !=, a '%' pattern, two
// equalities, or an equality beside a !=.
func randomGlobals(rng *rand.Rand) string {
	host := func() string { return strconv.Quote(spell(rng, dispatchHosts[rng.Intn(len(dispatchHosts))])) }
	attr := []string{"agentid", "agent_id", "host"}[rng.Intn(3)]
	switch rng.Intn(7) {
	case 0:
		return ""
	case 1, 2:
		return fmt.Sprintf("%s = %s\n", attr, host())
	case 3:
		return fmt.Sprintf("%s != %s\n", attr, host())
	case 4:
		return fmt.Sprintf("%s = %q\n", attr, []string{"host-%", "%-5", "%"}[rng.Intn(3)])
	case 5:
		return fmt.Sprintf("agentid = %s\n%s = %s\n", host(), attr, host())
	}
	return fmt.Sprintf("%s != %s\n%s = %s\n", attr, host(), attr, host())
}

// dispatchShapes are the extras' query bodies: two rule shapes of one
// signature (the second stricter, so it can join the first's group), a
// write and a read/write rule, a stateful count and a two-step chain.
var dispatchShapes = []string{
	"proc p start proc c as e\nreturn p, c",
	"proc p[\"%cmd.exe\"] start proc c as e\nreturn p, c",
	"proc p write ip i as e\nreturn p, i",
	"proc p read || write file f as e\nreturn p, f",
	"proc p write ip i as e #time(5 s)\nstate ss { n := count(e) } group by p\nalert ss.n > 1\nreturn p, ss.n",
	"proc p start proc c as e1\nproc c write file f as e2\nwith e1 -> e2\nreturn p, c, f",
}

// NewDispatchCase draws a case from seed. Every case holds three fixed
// families beside its random extras, on operations no extra uses so their
// grouping is known: a pinned master with an active stateful dependent,
// paused and resumed mid-stream; a pinned query swapped for an unpinned one;
// and a pinned master removed so that its dependents regroup.
func NewDispatchCase(seed int64) DispatchCase {
	rng := rand.New(rand.NewSource(seed))
	c := DispatchCase{Sharing: rng.Intn(4) != 0}
	pin := func() string {
		return fmt.Sprintf("agentid = %q\n", spell(rng, dispatchHosts[rng.Intn(len(dispatchHosts))]))
	}
	pm, rm, sw := pin(), pin(), pin()
	c.Queries = []DispatchQuery{
		{"pm", pm + "proc p execute file f as e\nreturn p, f"},
		{"pd", pm + "proc p[\"%cmd.exe\"] execute file f as e #time(5 s)\nstate ss { n := count(e) } group by p\nalert ss.n > 0\nreturn p, ss.n"},
		{"rm", rm + "proc p delete file f as e\nreturn p, f"},
		{"rd", rm + "proc p delete file f[\"%.tmp\"] as e\nreturn p, f"},
		{"rd2", rm + "proc p delete file f as e\nreturn f"},
		{"sw", sw + "proc p rename file f as e\nreturn p, f"},
	}
	for k := range 4 + rng.Intn(8) {
		c.Queries = append(c.Queries, DispatchQuery{fmt.Sprintf("x%d", k), randomGlobals(rng) + dispatchShapes[rng.Intn(len(dispatchShapes))]})
	}

	n := 300 + rng.Intn(300)
	base := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	exes := []string{"cmd.exe", "osql.exe", "svc.exe"}
	ops := []struct {
		op  event.Op
		obj string
	}{
		{event.OpStart, "proc"}, {event.OpWrite, "ip"}, {event.OpRead, "file"}, {event.OpWrite, "file"},
		{event.OpExecute, "file"}, {event.OpDelete, "file"}, {event.OpRename, "file"},
	}
	paths := []string{"/tmp/a.tmp", "/var/log/b.log"}
	dec, err := codec.New("ndjson", codec.Options{})
	if err != nil {
		panic(err)
	}
	for k := range n {
		agent := otherHosts[rng.Intn(len(otherHosts))]
		if rng.Intn(10) < 7 {
			agent = spell(rng, dispatchHosts[rng.Intn(len(dispatchHosts))])
		}
		o := ops[rng.Intn(len(ops))]
		ev := &event.Event{
			Time:    base.Add(time.Duration(k) * 100 * time.Millisecond),
			AgentID: agent,
			Subject: event.Process(exes[rng.Intn(len(exes))], int32(100+rng.Intn(4))),
			Op:      o.op,
			Amount:  float64(rng.Intn(300)),
		}
		switch o.obj {
		case "proc":
			ev.Object = event.Process(exes[rng.Intn(len(exes))], int32(200+rng.Intn(4)))
		case "ip":
			ev.Object = event.NetConn("10.0.0.1", 5000, "10.0.0.9", 443)
		default:
			ev.Object = event.File(paths[rng.Intn(len(paths))])
		}
		if rng.Intn(2) == 0 {
			// Through the codec: the event carries interned symbols.
			ev = decodeNDJSON(dec, ev)
		}
		c.Events = append(c.Events, ev)
	}

	c.Script = []DispatchStep{
		{At: n / 4, Kind: "pause", Name: "pm"},
		{At: n / 2, Kind: "swap", Name: "sw", Src: strings.Replace(sw, "=", "!=", 1) + "proc p rename file f as e\nreturn p, f"},
		{At: 5 * n / 8, Kind: "remove", Name: "rm"},
		{At: 3 * n / 4, Kind: "resume", Name: "pm"},
	}
	for range rng.Intn(3) {
		x := fmt.Sprintf("x%d", rng.Intn(len(c.Queries)-6))
		at := rng.Intn(n)
		c.Script = append(c.Script, DispatchStep{At: at, Kind: "pause", Name: x}, DispatchStep{At: at + rng.Intn(n-at), Kind: "resume", Name: x})
	}
	slices.SortStableFunc(c.Script, func(a, b DispatchStep) int { return a.At - b.At })
	return c
}

// decodeNDJSON renders ev as an ndjson line and decodes it back.
func decodeNDJSON(dec codec.Decoder, ev *event.Event) *event.Event {
	obj := map[string]any{}
	switch o := ev.Object; o.Type {
	case event.EntityProcess:
		obj = map[string]any{"type": "proc", "exe": o.ExeName, "pid": o.PID}
	case event.EntityNetConn:
		obj = map[string]any{"type": "ip", "src_ip": o.SrcIP, "src_port": o.SrcPort, "dst_ip": o.DstIP, "dst_port": o.DstPort}
	case event.EntityFile:
		obj = map[string]any{"type": "file", "path": o.Path}
	}
	line, err := json.Marshal(map[string]any{
		"ts": ev.Time.Format(time.RFC3339Nano), "agent": ev.AgentID, "op": ev.Op.String(),
		"subject": map[string]any{"exe": ev.Subject.ExeName, "pid": ev.Subject.PID},
		"object":  obj, "amount": ev.Amount,
	})
	if err != nil {
		panic(err)
	}
	evs, err := dec.Decode(line)
	if err != nil || len(evs) != 1 {
		panic(fmt.Sprintf("decode %s: %v, %d events", line, err, len(evs)))
	}
	return evs[0]
}

// DispatchSeeds are the fence's pinned seeds and the fresh one.
func DispatchSeeds(t testing.TB) []conformance.Seed { return conformance.Seeds(t, 1, 2, 3, 26) }

// apply runs one script step against a scheduler.
func (st DispatchStep) apply(t *testing.T, s *Scheduler) {
	t.Helper()
	ok := true
	switch st.Kind {
	case "pause", "resume":
		ok = s.SetPaused(st.Name, st.Kind == "pause")
	case "swap":
		ok = s.Swap(st.Name, compile(t, st.Name, st.Src), false) == nil
	case "remove":
		ok = s.Remove(st.Name)
	}
	if !ok {
		t.Fatalf("%s %s failed", st.Kind, st.Name)
	}
}

// TestPinnedDispatchMatchesSweep holds the evaluator to the un-indexed sweep
// on both of its paths: on every event of a random case, each query's hit set
// is the same from EvaluateBatch (over random batches), from Process (a batch
// of one) and from the oracle; the logical counters (StreamCopies, NaiveCopies,
// NaivePatternEvals) are the oracle's, and PatternEvals — the masters
// actually run — is at most the oracle's and the same on both paths.
func TestPinnedDispatchMatchesSweep(t *testing.T) {
	for _, sd := range DispatchSeeds(t) {
		t.Run(sd.Label, func(t *testing.T) {
			c := NewDispatchCase(sd.Value)
			rng := rand.New(rand.NewSource(sd.Value))
			serial, batch := New(nil, c.Sharing), New(nil, c.Sharing)
			for _, q := range c.Queries {
				for _, s := range []*Scheduler{serial, batch} {
					if err := s.Add(compile(t, q.Name, q.Src)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if c.Sharing {
				if g := serial.Groups(); len(g["pm"]) != 1 || len(g["rm"]) != 2 {
					t.Fatalf("groups %v: want pm over pd and rm over rd, rd2", g)
				}
			}
			var want Stats
			pinnedSkips := false
			script := c.Script
			for i := 0; i < len(c.Events); {
				for len(script) > 0 && script[0].At <= i {
					script[0].apply(t, serial)
					script[0].apply(t, batch)
					script = script[1:]
				}
				j := min(i+1+rng.Intn(64), len(c.Events))
				if len(script) > 0 {
					j = min(j, script[0].At)
				}
				chunk := c.Events[i:j]
				hs := batch.EvaluateBatch(chunk)
				for k, ev := range chunk {
					ref, st := refEvaluate(serial, ev)
					want.StreamCopies += st.StreamCopies
					want.NaiveCopies += st.NaiveCopies
					want.NaivePatternEvals += st.NaivePatternEvals
					want.PatternEvals += st.PatternEvals
					got := map[string][]int{}
					if hs[k] != nil {
						got = byName(hs[k].Layout, hs[k].Hits)
					}
					if !maps.EqualFunc(got, ref, slices.Equal) {
						t.Fatalf("event %d (agent %q): EvaluateBatch hits %v, sweep %v", i+k, ev.AgentID, got, ref)
					}
					if got := processHits(serial, ev); !maps.EqualFunc(got, ref, slices.Equal) {
						t.Fatalf("event %d (agent %q): Process hits %v, sweep %v", i+k, ev.AgentID, got, ref)
					}
				}
				i = j
			}
			for name, s := range map[string]*Scheduler{"Process": serial, "EvaluateBatch": batch} {
				st := s.Stats()
				if st.StreamCopies != want.StreamCopies || st.NaiveCopies != want.NaiveCopies || st.NaivePatternEvals != want.NaivePatternEvals {
					t.Errorf("%s: copies %d/%d, naive pattern evals %d; the sweep counts %d/%d, %d",
						name, st.StreamCopies, st.NaiveCopies, st.NaivePatternEvals, want.StreamCopies, want.NaiveCopies, want.NaivePatternEvals)
				}
				if st.PatternEvals > want.PatternEvals {
					t.Errorf("%s: PatternEvals %d, more than the sweep's %d", name, st.PatternEvals, want.PatternEvals)
				}
				pinnedSkips = pinnedSkips || st.PatternEvals < want.PatternEvals
			}
			if a, b := serial.Stats().PatternEvals, batch.Stats().PatternEvals; a != b {
				t.Errorf("PatternEvals: Process %d, EvaluateBatch %d", a, b)
			}
			if !pinnedSkips {
				t.Error("no pinned master was ever skipped: the case does not exercise the dispatch")
			}
		})
	}
}

// TestBucketSpans: over random batches and key counts, bucket's spans
// partition exactly the positions of indexed agentids, one span per key
// present in order of its first event, positions ascending within a span, and
// the per-key counts are all zero again after every call — including when the
// index grows or shrinks between calls.
func TestBucketSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b batchScratch
	for round := range 200 {
		nk := 1 + rng.Intn(40)
		agents := map[string]int32{}
		for k := range nk {
			agents[fmt.Sprintf("h%d", k)] = int32(k)
		}
		evs := make([]*event.Event, rng.Intn(80))
		for i := range evs {
			evs[i] = &event.Event{AgentID: fmt.Sprintf("H%d", rng.Intn(nk+nk/2+1))}
		}
		b.bucket(evs, agents)
		var firsts []int32
		seen := map[int32]bool{}
		for _, ev := range evs {
			if k := agentKey(agents, ev.AgentID); k >= 0 && !seen[k] {
				seen[k] = true
				firsts = append(firsts, k)
			}
		}
		if len(b.spans) != len(firsts) {
			t.Fatalf("round %d: %d spans for %d keys present", round, len(b.spans), len(firsts))
		}
		var lo int32
		for j, sp := range b.spans {
			if sp.key != firsts[j] || sp.lo != lo {
				t.Fatalf("round %d: span %d is %+v; want key %d from %d", round, j, sp, firsts[j], lo)
			}
			var want []int32
			for i, ev := range evs {
				if agentKey(agents, ev.AgentID) == sp.key {
					want = append(want, int32(i))
				}
			}
			if got := b.at[sp.lo:sp.hi]; !slices.Equal(got, want) {
				t.Fatalf("round %d: key %d's positions %v, want %v", round, sp.key, got, want)
			}
			lo = sp.hi
		}
		if int(lo) != len(b.at) {
			t.Fatalf("round %d: spans cover %d of %d bucketed positions", round, lo, len(b.at))
		}
		if slices.ContainsFunc(b.count, func(c int32) bool { return c != 0 }) {
			t.Fatalf("round %d: counts left %v", round, b.count)
		}
	}
}

// TestAgentEqPins pins which global constraints pin a master, and that an
// event's agentid finds its key however it is spelt.
func TestAgentEqPins(t *testing.T) {
	for _, c := range []struct {
		globals string
		want    string // "" when unpinned
	}{
		{`agentid = "Host-1"`, "host-1"},
		{`agent_id = "HOST-1"`, "host-1"},
		{`host = "ĦOST-4"`, "ħost-4"},
		{"agentid = \"K-5\"", "k-5"},
		{`agentid != "host-1"`, ""},
		{`agentid = "host-%"`, ""},
		{"agentid != \"host-1\"\nagentid = \"Host-2\"", "host-2"},
		{"host = \"h\"\nhost = \"H2\"", "h"},
		{`agentid = 5`, ""}, // a string field against a number: never matches
		{"agentid = \"h\"\nagentid = 5", ""},
		{``, ""},
	} {
		q := compile(t, "q", c.globals+"\nproc p start proc c as e\nreturn p")
		agent, ok := q.AgentEq()
		if ok != (c.want != "") || agent != c.want {
			t.Errorf("%q: AgentEq = %q, %v; want %q", c.globals, agent, ok, c.want)
		}
	}
	agents := map[string]int32{"host-1": 0, "ħost-4": 1, "k-5": 2, strings.Repeat("ab", 40): 3}
	for agent, want := range map[string]int32{
		"host-1": 0, "HoSt-1": 0, "ĦOST-4": 1, "\u212a-5": 2, "K-5": 2,
		strings.Repeat("aB", 40): 3, "host-2": -1, "": -1, "\xffhost-1": -1,
	} {
		if got := agentKey(agents, agent); got != want {
			t.Errorf("agentKey(%q) = %d, want %d", agent, got, want)
		}
	}
}
