package matcher

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"saql/internal/conformance"
	"saql/internal/event"
	"saql/internal/pcode"
	"saql/internal/wire"
)

// matcherUniverse is the entity pool the differential draws events from, by
// type. Each type holds entities Key-equal to one another that differ in a
// field Key does not render (User, CmdLine, Protocol), so a match that takes
// its entity from the wrong side or the wrong event shows up as a different
// pointer, not as an equal key.
var matcherUniverse = map[event.EntityType][]event.Entity{
	event.EntityProcess: {
		{Type: event.EntityProcess, ExeName: "a.exe", PID: 1, User: "u1"},
		{Type: event.EntityProcess, ExeName: "a.exe", PID: 1, User: "u2"},
		{Type: event.EntityProcess, ExeName: "a.exe", PID: 1, User: "u1", CmdLine: "a.exe -x"},
		{Type: event.EntityProcess, ExeName: "b.exe", PID: 1},
		{Type: event.EntityProcess, ExeName: "a.exe", PID: 2},
	},
	event.EntityFile: {
		{Type: event.EntityFile, Path: `C:\x`},
		{Type: event.EntityFile, Path: `C:\x`, User: "u1"},
		{Type: event.EntityFile, Path: `C:\y`},
	},
	event.EntityNetConn: {
		event.NetConn("10.0.0.1", 1, "10.0.0.2", 2),
		{Type: event.EntityNetConn, SrcIP: "10.0.0.1", SrcPort: 1, DstIP: "10.0.0.2", DstPort: 2, Protocol: "udp"},
		event.NetConn("10.0.0.1", 1, "10.0.0.3", 2),
	},
}

// matcherCase is one random rule query: its source and what it compiles to.
type matcherCase struct {
	src    string
	pats   []*Pattern
	global *pcode.EventProg
	order  []int
	cfg    Config
}

// randomMatcherCase draws 2–6 patterns over a small variable pool per type,
// so joins both hit and miss, with some sides unnamed and sometimes one
// process variable named on both sides of a pattern; a temporal order over a
// random subset; an optional agentid constraint; and a small horizon and
// partial cap, so partials expire and are dropped.
func randomMatcherCase(t *testing.T, rng *rand.Rand) matcherCase {
	t.Helper()
	types := []struct {
		kw   string
		vars []string
	}{{"proc", []string{"p1", "p2", "p3"}}, {"file", []string{"f1", "f2"}}, {"ip", []string{"i1", "i2"}}}
	ops := []string{"read", "write", "read || write"}
	name := func(vars []string) string {
		if rng.Intn(5) == 0 {
			return ""
		}
		return " " + vars[rng.Intn(len(vars))]
	}
	n := 2 + rng.Intn(5)
	both := -1
	if rng.Intn(2) == 0 {
		both = rng.Intn(n)
	}
	var sb strings.Builder
	if rng.Intn(4) == 0 {
		sb.WriteString("agentid = \"h1\"\n")
	}
	for i := range n {
		subj := name(types[0].vars)
		obj := types[rng.Intn(len(types))]
		objVar := name(obj.vars)
		if i == both {
			subj = " " + types[0].vars[rng.Intn(len(types[0].vars))]
			obj, objVar = types[0], subj
		}
		fmt.Fprintf(&sb, "proc%s %s %s%s as e%d\n", subj, ops[rng.Intn(len(ops))], obj.kw, objVar, i)
	}
	var order []int
	if k := rng.Intn(n + 1); k >= 2 {
		order = rng.Perm(n)[:k]
		aliases := make([]string, k)
		for j, idx := range order {
			aliases[j] = fmt.Sprintf("e%d", idx)
		}
		fmt.Fprintf(&sb, "with %s\n", strings.Join(aliases, " -> "))
	}
	sb.WriteString("return e0.amount")
	src := sb.String()
	pats, q := patternsOf(t, src)
	return matcherCase{
		src:    src,
		pats:   pats,
		global: pcode.CompileGlobals(q.Globals, nil),
		order:  order,
		cfg: Config{
			Horizon:     []time.Duration{3 * time.Second, 8 * time.Second, time.Minute}[rng.Intn(3)],
			MaxPartials: []int{2, 5, 16, 64}[rng.Intn(4)],
		},
	}
}

// build compiles both matchers of the case.
func (c matcherCase) build(t *testing.T) (*SeqMatcher, *refSeqMatcher) {
	t.Helper()
	m, err := NewSeqMatcher(c.pats, c.order, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefSeqMatcher(c.pats, c.global, c.order, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, ref
}

// randomMatcherEvent draws an event over the universe with a random op and
// agent, time advancing by 0–2 s.
func randomMatcherEvent(rng *rand.Rand, id uint64, at time.Time) *event.Event {
	objTypes := []event.EntityType{event.EntityProcess, event.EntityProcess, event.EntityFile, event.EntityNetConn}
	procs := matcherUniverse[event.EntityProcess]
	objs := matcherUniverse[objTypes[rng.Intn(len(objTypes))]]
	return &event.Event{
		ID:      id,
		Time:    at,
		AgentID: []string{"h1", "h2"}[rng.Intn(2)],
		Subject: procs[rng.Intn(len(procs))],
		Op:      []event.Op{event.OpRead, event.OpWrite, event.OpStart}[rng.Intn(3)],
		Object:  objs[rng.Intn(len(objs))],
	}
}

// entityAt locates an entity of a match in the match's own events: the
// pattern index and side (0 subject, 1 object) it points into, or -1, -1 for
// nil. Two matches bind the same entity when their locations agree and their
// events there are the same event.
func entityAt(t *testing.T, m *Match, e *event.Entity) (int, int) {
	t.Helper()
	if e == nil {
		return -1, -1
	}
	for j, ev := range m.Events {
		if ev != nil && e == &ev.Subject {
			return j, 0
		}
		if ev != nil && e == &ev.Object {
			return j, 1
		}
	}
	t.Fatalf("match entity %v points outside the match's events", e)
	return -1, -1
}

// sameMatches compares completed matches: At, each pattern's event (the
// stream's pointer, or after a restore equal decoded copies on both sides)
// and each variable's entity by where it points. stream[i] is the event with
// ID i.
func sameMatches(t *testing.T, step int, stream []*event.Event, got, want []*Match) {
	t.Helper()
	inStream := func(ev *event.Event) bool { return ev.ID < uint64(len(stream)) && stream[ev.ID] == ev }
	if len(got) != len(want) {
		t.Fatalf("step %d: %d matches, reference %d", step, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.At.Equal(w.At) || len(g.Events) != len(w.Events) || len(g.Entities) != len(w.Entities) {
			t.Fatalf("step %d match %d: at %v, %d events, %d entities; reference at %v, %d, %d",
				step, i, g.At, len(g.Events), len(g.Entities), w.At, len(w.Events), len(w.Entities))
		}
		for j := range g.Events {
			ge, we := g.Events[j], w.Events[j]
			if ge == nil || we == nil || inStream(ge) != inStream(we) || (inStream(ge) && ge != we) ||
				!bytes.Equal(wire.AppendEvent(nil, ge), wire.AppendEvent(nil, we)) {
				t.Fatalf("step %d match %d: pattern %d's event %v, reference %v", step, i, j, ge, we)
			}
		}
		for v := range g.Entities {
			gj, gs := entityAt(t, g, g.Entities[v])
			wj, ws := entityAt(t, w, w.Entities[v])
			if gj != wj || gs != ws {
				t.Fatalf("step %d match %d: variable slot %d bound at pattern %d side %d, reference at pattern %d side %d",
					step, i, v, gj, gs, wj, ws)
			}
		}
	}
}

// runMatcherCase feeds one random case's stream to both matchers, comparing
// after every event and round-tripping the state mid-stream.
func runMatcherCase(t *testing.T, rng *rand.Rand, c matcherCase, events int) {
	t.Helper()
	m, ref := c.build(t)
	stream := make([]*event.Event, events)
	at := base
	for step := range events {
		at = at.Add(time.Duration(rng.Intn(3)) * time.Second)
		ev := randomMatcherEvent(rng, uint64(step), at)
		stream[step] = ev
		got := m.ObserveHits(ev, hitsOf(c.pats, c.global, ev))
		want := ref.Observe(ev)
		sameMatches(t, step, stream, got, want)
		if m.PartialCount() != len(ref.partials) || m.Expired != ref.Expired || m.Dropped != ref.Dropped {
			t.Fatalf("step %d: partials %d expired %d dropped %d, reference %d, %d, %d",
				step, m.PartialCount(), m.Expired, m.Dropped, len(ref.partials), ref.Expired, ref.Dropped)
		}
		blob := m.AppendState(nil)
		if wantBlob := ref.AppendState(nil); !bytes.Equal(blob, wantBlob) {
			t.Fatalf("step %d: state bytes differ from the reference's (%d vs %d bytes)", step, len(blob), len(wantBlob))
		}
		if rng.Intn(40) != 0 {
			continue
		}
		// Round-trip the state into fresh matchers; now and then restore it
		// twice, as restoring several per-shard blobs merges them.
		m, ref = c.build(t)
		for range 1 + rng.Intn(4)/3 {
			if err := m.ReadState(wire.NewReader(blob)); err != nil {
				t.Fatalf("step %d: ReadState: %v", step, err)
			}
			if err := ref.ReadState(wire.NewReader(blob)); err != nil {
				t.Fatalf("step %d: reference ReadState: %v", step, err)
			}
		}
	}
}

// TestSeqMatcherMatchesReference holds the matcher, whose partial matches
// are their events alone, to the one that kept a map of entity keys beside
// them (matcher_ref_test.go) over random queries and streams: the same
// completed matches (events, the entity each variable binds, time), partial
// count, expiry and drop counters and checkpoint bytes after every event,
// across mid-stream restores. Pinned seeds run with one fresh seed per run,
// labelled "seed=fresh" with its value logged; SAQL_CONFORMANCE_SEED
// reproduces one.
func TestSeqMatcherMatchesReference(t *testing.T) {
	for _, s := range conformance.Seeds(t, 1, 2, 3, 4, 5, 29) {
		t.Run(s.Label, func(t *testing.T) {
			rng := rand.New(rand.NewSource(s.Value))
			for i := range 60 {
				c := randomMatcherCase(t, rng)
				t.Run(strconv.Itoa(i), func(t *testing.T) {
					t.Cleanup(func() {
						if t.Failed() {
							t.Logf("query:\n%s\nconfig %+v", c.src, c.cfg)
						}
					})
					runMatcherCase(t, rng, c, 300)
				})
			}
		})
	}
}
