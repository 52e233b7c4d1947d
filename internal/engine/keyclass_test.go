package engine

// The router evaluates a hit's group key once for every query in the same key
// class — SameKeyPrograms — on one member's programs. A wrong merge would fold
// state under another query's key, silently; these tests hold the class
// relation to what it promises (byte-equal keys, and the same failures, for
// every event any member's pattern matches) and pin a few merges that must,
// and must not, happen.

import (
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"

	"saql/internal/event"
)

// TestKeyClassMembersAgreeOnEveryHit: over the conformance corpus and the
// failing shapes, any two stateful queries SameKeyPrograms puts together yield
// the same key — or fail with the same text — for every event that hits either
// of them, pattern by pattern: the class's evaluating member may be asked for
// the key of an event only the other one matched.
func TestKeyClassMembersAgreeOnEveryHit(t *testing.T) {
	events := demoStream(t)
	var queries []*Query
	for _, c := range foldCases() {
		if q := compile(t, c.Name, c.Src); q.stateful {
			queries = append(queries, q)
		}
	}
	text := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	classes, merged, compared := 0, 0, 0
	for i, a := range queries {
		if !a.SameKeyPrograms(a) {
			t.Fatalf("%s is not in its own key class", a.Name)
		}
		first := true
		for _, b := range queries[:i] {
			if a.SameKeyPrograms(b) != b.SameKeyPrograms(a) {
				t.Fatalf("SameKeyPrograms(%s, %s) is not symmetric", a.Name, b.Name)
			}
			if !a.SameKeyPrograms(b) {
				continue
			}
			first = false
			merged++
			for _, ev := range events {
				hit := map[int]bool{}
				for _, hi := range a.Hits(ev) {
					hit[hi] = true
				}
				for _, hi := range b.Hits(ev) {
					hit[hi] = true
				}
				for hi := range hit {
					ka, ea := a.HitKey(hi, ev)
					kb, eb := b.HitKey(hi, ev)
					if ka != kb || text(ea) != text(eb) {
						t.Fatalf("%s and %s share a key class but on %s pattern %d keys are %q (%v) and %q (%v)",
							a.Name, b.Name, ev, hi, ka, ea, kb, eb)
					}
					compared++
				}
			}
		}
		if first {
			classes++
		}
	}
	t.Logf("%d stateful queries in %d key classes; %d merged pairs agreed on %d keys", len(queries), classes, merged, compared)
	if merged == 0 || compared == 0 {
		t.Fatal("the corpus put no two queries in one class: the property was not exercised")
	}
}

// TestKeyClassMerges pins the relation on hand-picked pairs: what decides is
// the compiled key programs — the role and attribute a key reads — not the
// spelling of the query around them.
func TestKeyClassMerges(t *testing.T) {
	const base = `proc p write ip i as e #time(10 s)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 10
return p`
	withKey := func(key string) string { return strings.Replace(base, "group by p", "group by "+key, 1) }
	for _, c := range []struct {
		name, src string
		same      bool
		against   string // base unless set
	}{
		{"another window, threshold and aggregate", `proc p write ip i as e #time(17 s)
state[3] ss { n := count(e) } group by p
alert ss[0].n > 3
return p`, true, ""},
		{"renamed variables", `proc x write ip y as z #time(10 s)
state ss { amt := sum(z.amount) } group by x
alert ss.amt > 10
return x`, true, ""},
		{"the default attribute spelled out", withKey("p.exe_name"), true, ""},
		{"stricter pattern constraints, another object type", `proc p["%sql%"] read || write file f as e #time(10 s)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 10
return p`, true, ""},
		{"another attribute", withKey("p.pid"), false, ""},
		{"the object instead of the subject", withKey("i"), false, ""},
		{"one more item", withKey("p, i.dstip"), false, ""},
		{"no group-by", `proc p write ip i as e #time(10 s)
state ss { amt := sum(e.amount) }
alert ss.amt > 10
return ss.amt`, false, ""},
		{"an integer constant where the other has the equal float", withKey("p.pid + 1.0"), false, withKey("p.pid + 1")},
		{"one more pattern", `proc p write ip i as e #time(10 s)
proc q read file f as e2
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 10
return p`, false, ""},
	} {
		if c.against == "" {
			c.against = base
		}
		a, b := compile(t, "base", c.against), compile(t, c.name, c.src)
		if got := a.SameKeyPrograms(b); got != c.same {
			t.Errorf("%s: SameKeyPrograms = %v, want %v", c.name, got, c.same)
		}
	}
}

// TestKeyClassDirectoryBoundedUnderChurn: a stream whose every window brings
// fresh keys — 200 windows of 100 processes never seen before — must not grow
// a key class's directory with the keys it has ever seen: it stays within a
// constant factor of the groups its members' open windows hold (twice their
// peak, plus the directory's minimum size), while the members, folding by id
// through one slice log that folds whatever it holds before a reset, raise
// exactly the alerts the same queries raise folding hit by hit.
func TestKeyClassDirectoryBoundedUnderChurn(t *testing.T) {
	const (
		windows       = 200
		keysPerWindow = 100
		variants      = 8
	)
	kc := NewKeyClass()
	var members, twins []*Query
	for v := 0; v < variants; v++ {
		src := fmt.Sprintf(`proc p write ip i as e #time(%d s)
state ss { n := count(e) } group by p
alert ss.n > 1
return p, ss.n`, 10+v)
		members = append(members, compile(t, fmt.Sprintf("m%d", v), src))
		twins = append(twins, compile(t, fmt.Sprintf("m%d", v), src))
	}
	log := NewSliceLog(members, kc, func(err error) { t.Fatal(err) })
	kc.SetLogs([]*SliceLog{log})
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	got, want := map[string]int{}, map[string]int{}
	count := func(into map[string]int, alerts []*Alert) {
		for _, a := range alerts {
			into[fmt.Sprintf("%s %v %s", a.Query, a.EventTime.UnixNano(), a.GroupKey)]++
		}
	}
	maxDir, maxLive, seq := 0, 0, uint64(0)
	for w := 0; w < windows; w++ {
		for k := 0; k < 2*keysPerWindow; k++ { // each key twice: every group alerts
			ev := &event.Event{
				Time:    base.Add(time.Duration(w)*10*time.Second + time.Duration(k)*time.Millisecond),
				AgentID: "h",
				Subject: event.Process(fmt.Sprintf("w%d-k%d.exe", w, k%keysPerWindow), int32(k%keysPerWindow)),
				Op:      event.OpWrite,
				Object:  event.NetConn("10.0.0.2", 1, "10.0.0.9", 443),
				Amount:  1,
			}
			seq++
			count(got, log.Offer(seq, ev, members[0].Hits(ev)))
			for _, q := range twins {
				count(want, q.refIngestKeyed(ev, q.Hits(ev), refDirectory(q), func(err error) { t.Fatal(err) }))
			}
			// The live groups as hit by hit (the twins'): the members' lag
			// them by the hits the log has not folded yet.
			live := 0
			for _, q := range twins {
				live += q.winMgr.OpenGroups()
			}
			maxLive, maxDir = max(maxLive, live), max(maxDir, kc.dir.Len())
		}
	}
	log.Settle()
	for i, q := range members {
		count(got, q.Flush(nil))
		count(want, twins[i].Flush(nil))
	}
	t.Logf("%d keys seen; directory peaked at %d for at most %d live groups (%d resets)",
		windows*keysPerWindow, maxDir, maxLive, kc.dir.Epoch())
	if maxDir > 2*maxLive+minDirectoryLimit {
		t.Errorf("directory peaked at %d keys for at most %d live groups, bound %d", maxDir, maxLive, 2*maxLive+minDirectoryLimit)
	}
	if maxDir >= windows*keysPerWindow/4 || kc.dir.Epoch() == 0 {
		t.Errorf("directory peaked at %d of %d keys after %d resets: it is not bounded", maxDir, windows*keysPerWindow, kc.dir.Epoch())
	}
	if len(want) == 0 || !maps.Equal(got, want) {
		t.Errorf("class-keyed members raised %d distinct alerts, self-keyed twins %d: they must agree", len(got), len(want))
	}
}
