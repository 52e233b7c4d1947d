package matcher

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/parser"
	"saql/internal/pcode"
)

var base = time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

// patternsOf compiles the patterns of a parsed query.
func patternsOf(t testing.TB, src string) ([]*Pattern, *ast.Query) {
	t.Helper()
	q, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Pattern
	for i, p := range q.Patterns {
		out = append(out, Compile(i, p, nil))
	}
	return out, q
}

func TestEntityPatternPredicates(t *testing.T) {
	pats, _ := patternsOf(t, `proc p["%osql.exe", pid > 100] write file f["%.dmp"] return p`)
	p := pats[0]

	good := &event.Event{
		Subject: event.Process(`C:\tools\osql.exe`, 500),
		Op:      event.OpWrite,
		Object:  event.File(`C:\db\x.dmp`),
	}
	if !p.Matches(good) {
		t.Error("matching event rejected")
	}
	badPID := *good
	badPID.Subject = event.Process("osql.exe", 50)
	if p.Matches(&badPID) {
		t.Error("pid constraint ignored")
	}
	badExe := *good
	badExe.Subject = event.Process("sqlcmd.exe", 500)
	if p.Matches(&badExe) {
		t.Error("exe wildcard ignored")
	}
	badOp := *good
	badOp.Op = event.OpRead
	if p.Matches(&badOp) {
		t.Error("op ignored")
	}
	badObj := *good
	badObj.Object = event.File(`C:\db\x.txt`)
	if p.Matches(&badObj) {
		t.Error("object constraint ignored")
	}
	badType := *good
	badType.Object = event.Process("x", 1)
	if p.Matches(&badType) {
		t.Error("object type ignored")
	}
}

func TestOpAlternation(t *testing.T) {
	pats, _ := patternsOf(t, `proc p read || write ip i return p`)
	conn := event.NetConn("1.1.1.1", 1, "2.2.2.2", 2)
	for _, op := range []event.Op{event.OpRead, event.OpWrite} {
		if !pats[0].Matches(&event.Event{Subject: event.Process("x", 1), Op: op, Object: conn}) {
			t.Errorf("op %v should match", op)
		}
	}
	if pats[0].Matches(&event.Event{Subject: event.Process("x", 1), Op: event.OpConnect, Object: conn}) {
		t.Error("connect should not match read||write")
	}
}

func TestCompileGlobals(t *testing.T) {
	q, err := parser.Parse(`agentid = "db-1"
proc p start proc q2 return p`)
	if err != nil {
		t.Fatal(err)
	}
	pred := pcode.CompileGlobals(q.Globals, nil)
	if !pred.Match(&event.Event{AgentID: "db-1"}) {
		t.Error("matching agent rejected")
	}
	if pred.Match(&event.Event{AgentID: "db-2"}) {
		t.Error("wrong agent accepted")
	}
	if !pcode.CompileGlobals(nil, nil).Match(&event.Event{}) {
		t.Error("empty globals should always match")
	}
}

// seq is a SeqMatcher fed the way the engine feeds it: observe evaluates the
// query's global constraints and patterns, as its master does
// (engine.Query.MatchBatch), and hands the hits to ObserveHits.
type seq struct {
	*SeqMatcher
	global *pcode.EventProg
}

func (s seq) observe(ev *event.Event) []*Match {
	return s.ObserveHits(ev, hitsOf(s.patterns, s.global, ev))
}

// hitsOf lists the patterns ev hits, none if it fails the global constraints.
func hitsOf(pats []*Pattern, global *pcode.EventProg, ev *event.Event) []int {
	if !global.Match(ev) {
		return nil
	}
	var hits []int
	for i, p := range pats {
		if p.Matches(ev) {
			hits = append(hits, i)
		}
	}
	return hits
}

func seqOf(t *testing.T, src string, cfg Config) seq {
	t.Helper()
	pats, q := patternsOf(t, src)
	var order []int
	if q.Temporal != nil {
		aliases := map[string]int{}
		for i, p := range q.Patterns {
			if p.Alias != "" {
				aliases[p.Alias] = i
			}
		}
		for _, a := range q.Temporal.Order {
			order = append(order, aliases[a])
		}
	}
	m, err := NewSeqMatcher(pats, order, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return seq{m, pcode.CompileGlobals(q.Globals, nil)}
}

const twoStep = `
proc p1["%cmd.exe"] start proc p2 as e1
proc p2 write ip i[dstip="9.9.9.9"] as e2
with e1 -> e2
return p1`

func TestSequenceJoinOnSubject(t *testing.T) {
	m := seqOf(t, twoStep, Config{})
	cmd := event.Process("cmd.exe", 10)
	child := event.Process("evil.exe", 11)
	other := event.Process("other.exe", 99)
	conn := event.NetConn("1.1.1.1", 1, "9.9.9.9", 443)

	// e1: cmd starts child.
	if got := m.observe(&event.Event{Time: base, Subject: cmd, Op: event.OpStart, Object: child}); len(got) != 0 {
		t.Fatalf("premature match: %v", got)
	}
	// A DIFFERENT process writing must not complete (p2 join).
	if got := m.observe(&event.Event{Time: base.Add(time.Second), Subject: other, Op: event.OpWrite, Object: conn}); len(got) != 0 {
		t.Fatal("join violated")
	}
	// The child writing completes the sequence.
	got := m.observe(&event.Event{Time: base.Add(2 * time.Second), Subject: child, Op: event.OpWrite, Object: conn})
	if len(got) != 1 {
		t.Fatalf("matches = %d, want 1", len(got))
	}
	if p2 := got[0].Entities[slices.Index(m.Vars(), "p2")]; p2.ExeName != "evil.exe" {
		t.Errorf("p2 binding = %v", p2)
	}
	if got[0].At != base.Add(2*time.Second) {
		t.Errorf("match time = %v", got[0].At)
	}
}

func TestSequenceOrderEnforced(t *testing.T) {
	m := seqOf(t, twoStep, Config{})
	cmd := event.Process("cmd.exe", 10)
	child := event.Process("evil.exe", 11)
	conn := event.NetConn("1.1.1.1", 1, "9.9.9.9", 443)
	// e2 first: cannot seed (ordered position 1).
	m.observe(&event.Event{Time: base, Subject: child, Op: event.OpWrite, Object: conn})
	// e1 next: seeds a partial.
	m.observe(&event.Event{Time: base.Add(time.Second), Subject: cmd, Op: event.OpStart, Object: child})
	if m.PartialCount() != 1 {
		t.Errorf("partials = %d, want 1", m.PartialCount())
	}
	// Now e2 again completes.
	got := m.observe(&event.Event{Time: base.Add(2 * time.Second), Subject: child, Op: event.OpWrite, Object: conn})
	if len(got) != 1 {
		t.Errorf("matches = %d", len(got))
	}
}

func TestUnorderedConjunction(t *testing.T) {
	m := seqOf(t, `
proc p1 write file f["%a.txt"] as e1
proc p1 write file g["%b.txt"] as e2
return p1`, Config{})
	p := event.Process("x.exe", 1)
	// Reverse order still matches (no temporal clause).
	m.observe(&event.Event{Time: base, Subject: p, Op: event.OpWrite, Object: event.File("b.txt")})
	got := m.observe(&event.Event{Time: base.Add(time.Second), Subject: p, Op: event.OpWrite, Object: event.File("a.txt")})
	if len(got) != 1 {
		t.Errorf("unordered match = %d, want 1", len(got))
	}
}

func TestHorizonExpiry(t *testing.T) {
	m := seqOf(t, twoStep, Config{Horizon: time.Minute})
	cmd := event.Process("cmd.exe", 10)
	child := event.Process("evil.exe", 11)
	conn := event.NetConn("1.1.1.1", 1, "9.9.9.9", 443)
	m.observe(&event.Event{Time: base, Subject: cmd, Op: event.OpStart, Object: child})
	// Two minutes later the partial has expired.
	got := m.observe(&event.Event{Time: base.Add(2 * time.Minute), Subject: child, Op: event.OpWrite, Object: conn})
	if len(got) != 0 {
		t.Error("expired partial completed")
	}
	if m.Expired == 0 {
		t.Error("expiry not counted")
	}
}

func TestPartialCapacity(t *testing.T) {
	m := seqOf(t, twoStep, Config{MaxPartials: 3})
	// Seed many partials with distinct children.
	for i := 0; i < 10; i++ {
		cmd := event.Process("cmd.exe", 10)
		child := event.Process(fmt.Sprintf("c%d.exe", i), int32(100+i))
		m.observe(&event.Event{Time: base.Add(time.Duration(i) * time.Second), Subject: cmd, Op: event.OpStart, Object: child})
	}
	if m.PartialCount() > 3 {
		t.Errorf("partials = %d, cap 3", m.PartialCount())
	}
	if m.Dropped == 0 {
		t.Error("drops not counted")
	}
}

func TestSinglePatternImmediate(t *testing.T) {
	m := seqOf(t, `proc p["%gsecdump.exe"] read file f return p`, Config{})
	got := m.observe(&event.Event{Time: base, Subject: event.Process("gsecdump.exe", 5), Op: event.OpRead, Object: event.File("SAM")})
	if len(got) != 1 {
		t.Fatalf("single-pattern match = %d", len(got))
	}
	if got[0].Entities[slices.Index(m.Vars(), "p")].ExeName != "gsecdump.exe" {
		t.Error("binding missing")
	}
}

func TestObserveHitsSkipsMatching(t *testing.T) {
	m := seqOf(t, `proc p read file f return p`, Config{})
	ev := &event.Event{Time: base, Subject: event.Process("x", 1), Op: event.OpRead, Object: event.File("f")}
	// Even a non-matching event completes if the caller says pattern 0 hit
	// (the master's verdict is trusted).
	if got := m.ObserveHits(&event.Event{Time: base, Subject: event.Process("x", 1), Op: event.OpWrite, Object: event.File("f")}, []int{0}); len(got) != 1 {
		t.Error("ObserveHits should trust provided hits")
	}
	if got := m.ObserveHits(ev, nil); len(got) != 0 {
		t.Error("no hits should mean no matches")
	}
}

func TestNewSeqMatcherValidation(t *testing.T) {
	pats, _ := patternsOf(t, `proc p read file f return p`)
	if _, err := NewSeqMatcher(nil, nil, Config{}); err == nil {
		t.Error("no patterns should fail")
	}
	if _, err := NewSeqMatcher(pats, []int{5}, Config{}); err == nil {
		t.Error("bad order index should fail")
	}
	if _, err := NewSeqMatcher(pats, []int{0, 0}, Config{}); err == nil {
		t.Error("duplicate order index should fail")
	}
}
