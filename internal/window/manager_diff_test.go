package window

// Differential fence for the state maintainer: the deadline-driven Manager
// folding by group id, the same Manager folding by key (groupForKey, the fold
// the id index replaced) and the map-walking reference (manager_ref_test.go)
// execute the same seeded random script — folds, touches, watermark advances,
// flushes, checkpoint round trips and merges, and resets or replacements of
// the id fold's directory at random points, under tumbling, hopping and gapped
// specs, with late and pre-epoch times — and must agree on everything
// observable: which windows close and in what order, their groups,
// aggregates, counts and representative bindings, the late-event count, and
// the checkpoint bytes. A dropped id index must be invisible.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"saql/internal/conformance"
	"saql/internal/event"
	"saql/internal/value"
	"saql/internal/wire"
)

var diffFields = []FieldSpec{
	{Name: "total", AggName: "sum"},
	{Name: "n", AggName: "count"},
	{Name: "dsts", AggName: "set"},
	{Name: "p95", AggName: "percentile", AggParams: []value.Value{value.Int(95)}},
}

// diffPattern is one event pattern's variable names: what a hit binds.
type diffPattern struct{ subj, obj, alias string }

// The second pattern shares "p" with the first, and the third names subject
// and object alike, so the object must shadow the subject.
var diffPatterns = []diffPattern{
	{"p", "i", "evt"},
	{"p", "", "e2"},
	{"x", "x", ""},
}

// diffPair drives two Managers — one folding by id through dir, one by key —
// and one refManager in lockstep.
type diffPair struct {
	t     *testing.T
	got   *Manager
	keyed *Manager
	want  *refManager
	dir   *Directory
	slots []struct{ subj, obj, alias int }
}

// newDiffPair creates the two managers; declare resolves the patterns' slots
// at once (a compiled query), otherwise the caller does after restoring (the
// decoder then meets names no one has declared yet).
func newDiffPair(t *testing.T, spec Spec, declare bool) *diffPair {
	t.Helper()
	got, err := NewManager(spec, diffFields)
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := NewManager(spec, diffFields)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRefManager(spec, diffFields)
	if err != nil {
		t.Fatal(err)
	}
	p := &diffPair{t: t, got: got, keyed: keyed, want: want, dir: new(Directory)}
	if declare {
		p.assignSlots()
	}
	return p
}

// assignSlots resolves the patterns' names against the Managers, as the
// engine does at compile time and after adopting a restored manager.
func (p *diffPair) assignSlots() {
	p.slots = p.slots[:0]
	for _, pat := range diffPatterns {
		s := struct{ subj, obj, alias int }{-1, -1, -1}
		for _, m := range []*Manager{p.keyed, p.got} {
			if pat.subj != "" {
				s.subj = m.EntitySlot(pat.subj)
			}
			if pat.obj != "" {
				s.obj = m.EntitySlot(pat.obj)
			}
			if pat.alias != "" {
				s.alias = m.EventSlot(pat.alias)
			}
		}
		p.slots = append(p.slots, s)
	}
	if !slices.Equal(p.got.entities.names, p.keyed.entities.names) || !slices.Equal(p.got.events.names, p.keyed.events.names) {
		p.t.Fatalf("the two managers assigned different slots: %v %v / %v %v",
			p.got.entities.names, p.got.events.names, p.keyed.entities.names, p.keyed.events.names)
	}
}

// fold folds one hit of pattern pi into key's groups on both managers, with
// the engine's binding rules on each side.
func (p *diffPair) fold(ev *event.Event, key string, pi int) {
	p.t.Helper()
	id := p.dir.Resolve(HashKey(key), key)
	gs := p.got.GroupFor(ev.Time, p.dir, id)
	ks := p.keyed.groupForKey(ev.Time, key)
	ws := p.want.GroupFor(ev.Time, key)
	if len(gs) != len(ws) || len(ks) != len(ws) {
		p.t.Fatalf("GroupFor(%v, %q): %d groups by id, %d by key, reference %d", ev.Time.UnixNano(), key, len(gs), len(ks), len(ws))
	}
	pat, s := diffPatterns[pi], p.slots[pi]
	vals := []value.Value{value.Float(ev.Amount), value.Int(1), value.String(ev.Object.DstIP), value.Float(ev.Amount)}
	for k, w := range ws {
		if gs[k].Key != w.Key || ks[k].Key != w.Key {
			p.t.Fatalf("GroupFor group %d: key %q by id (id %d), %q by key, reference %q", k, gs[k].Key, id, ks[k].Key, w.Key)
		}
		w.Count++
		for _, g := range []*Group{gs[k], ks[k]} {
			g.Count++
			if s.obj >= 0 && g.Entities[s.obj] == nil {
				g.Entities[s.obj] = &ev.Object
			}
			if s.subj >= 0 && g.Entities[s.subj] == nil {
				g.Entities[s.subj] = &ev.Subject
			}
			if s.alias >= 0 && g.Events[s.alias] == nil {
				g.Events[s.alias] = ev
			}
			for i, v := range vals {
				if err := g.Aggs[i].Add(v); err != nil {
					p.t.Fatal(err)
				}
			}
		}
		// The reference binds by name, as bindGroupRep did.
		if pat.obj != "" {
			if _, ok := w.Entities[pat.obj]; !ok {
				o := ev.Object
				w.Entities[pat.obj] = &o
			}
		}
		if pat.subj != "" && pat.subj != pat.obj {
			if _, ok := w.Entities[pat.subj]; !ok {
				sub := ev.Subject
				w.Entities[pat.subj] = &sub
			}
		}
		if pat.alias != "" {
			if _, ok := w.Events[pat.alias]; !ok {
				w.Events[pat.alias] = ev
			}
		}
		for i, v := range vals {
			if err := w.Aggs[i].Add(v); err != nil {
				p.t.Fatal(err)
			}
		}
	}
}

// renderGroup flattens everything a closed group exposes into one string.
func renderGroup(key string, count int, fields map[string]value.Value, ents map[string]*event.Entity, evs map[string]*event.Event) string {
	var parts []string
	for n, v := range fields {
		parts = append(parts, "f:"+n+"="+v.String())
	}
	for n, e := range ents {
		parts = append(parts, fmt.Sprintf("e:%s=%+v", n, *e))
	}
	for n, ev := range evs {
		parts = append(parts, fmt.Sprintf("v:%s=%d", n, ev.ID))
	}
	sort.Strings(parts)
	return fmt.Sprintf("%q#%d{%s}", key, count, strings.Join(parts, " "))
}

// closeAll runs one close operation on all three managers and compares what
// each closed with the reference.
func (p *diffPair) closeAll(op string, close func(m *Manager) []Closed, want []refClosed) {
	p.t.Helper()
	p.sameClosed(op+" (by key)", p.keyed, close(p.keyed), want)
	p.sameClosed(op, p.got, close(p.got), want)
}

// sameClosed compares two closed-window sequences.
func (p *diffPair) sameClosed(op string, m *Manager, got []Closed, want []refClosed) {
	p.t.Helper()
	if len(got) != len(want) {
		p.t.Fatalf("%s closed %d windows, reference %d", op, len(got), len(want))
	}
	for k, g := range got {
		w := want[k]
		if g.ID != w.ID || !g.End.Equal(w.End) {
			p.t.Fatalf("%s window %d: id %d end %v, reference id %d end %v", op, k, g.ID, g.End, w.ID, w.End)
		}
		if len(g.Groups) != len(w.Groups) {
			p.t.Fatalf("%s window %d: %d groups, reference %d", op, g.ID, len(g.Groups), len(w.Groups))
		}
		for i, grp := range g.Groups {
			if i > 0 && g.Groups[i-1].Key >= grp.Key {
				p.t.Fatalf("%s window %d: groups not in ascending key order at %d", op, g.ID, i)
			}
			ref, ok := w.Groups[grp.Key]
			if !ok {
				p.t.Fatalf("%s window %d: group %q unknown to the reference", op, g.ID, grp.Key)
			}
			snap := m.SnapshotGroup(g.ID, grp)
			fields := map[string]value.Value{}
			for fi, f := range diffFields {
				fields[f.Name] = snap.Fields[fi]
			}
			ents, evs := bindingsByName(m, snap)
			refSnap := p.want.SnapshotGroup(w.ID, ref)
			a := renderGroup(grp.Key, snap.Count, fields, ents, evs)
			b := renderGroup(ref.Key, refSnap.Count, refSnap.Fields, refSnap.Entities, refSnap.Events)
			if a != b {
				p.t.Fatalf("%s window %d group %q:\n  got  %s\n  want %s", op, g.ID, grp.Key, a, b)
			}
		}
	}
}

// bindingsByName renders s's slot-indexed bindings the way the reference keeps
// them: keyed by variable name, unbound slots absent.
func bindingsByName(m *Manager, s *Snapshot) (map[string]*event.Entity, map[string]*event.Event) {
	entities := map[string]*event.Entity{}
	for slot, e := range s.Entities {
		if e != nil {
			entities[m.entities.names[slot]] = e
		}
	}
	events := map[string]*event.Event{}
	for slot, ev := range s.Events {
		if ev != nil {
			events[m.events.names[slot]] = ev
		}
	}
	return entities, events
}

// sameState compares the counters and the checkpoint bytes, returning them.
func (p *diffPair) sameState(op string) []byte {
	p.t.Helper()
	b, err := p.want.AppendState(nil)
	if err != nil {
		p.t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		*Manager
	}{{"by key", p.keyed}, {"by id", p.got}} {
		if m.LateEvents != p.want.LateEvents {
			p.t.Fatalf("after %s: LateEvents %d %s, reference %d", op, m.LateEvents, m.name, p.want.LateEvents)
		}
		if m.OpenWindows() != p.want.OpenWindows() {
			p.t.Fatalf("after %s: %d open windows %s, reference %d", op, m.OpenWindows(), m.name, p.want.OpenWindows())
		}
		a, err := m.AppendState(nil)
		if err != nil {
			p.t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			p.t.Fatalf("after %s: AppendState %s differs from the reference (%d vs %d bytes)", op, m.name, len(a), len(b))
		}
	}
	return b
}

// readState folds blob into both managers.
func (p *diffPair) readState(blob []byte, keep func(string) bool, disjoint bool) {
	p.t.Helper()
	for _, m := range []*Manager{p.got, p.keyed} {
		if err := m.ReadState(wire.NewReader(blob), keep, disjoint); err != nil {
			p.t.Fatal(err)
		}
	}
	if err := p.want.ReadState(wire.NewReader(blob), keep, disjoint); err != nil {
		p.t.Fatal(err)
	}
}

func runManagerScript(t *testing.T, spec Spec, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	p := newDiffPair(t, spec, true)
	// Stream time starts before the epoch and drifts forward with jitter
	// wide enough to land behind closed windows.
	now := time.Unix(-40, 0).Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
	span := spec.Length + spec.EffectiveHop()
	var stash []byte // an earlier checkpoint, merged back in later
	var id uint64
	for step := 0; step < steps; step++ {
		now = now.Add(time.Duration(rng.Int63n(int64(span) / 6)))
		at := now.Add(time.Duration(rng.Int63n(int64(span))) - span*2/3)
		if rng.Intn(6) == 0 {
			// Land exactly on a window's start or end: the boundaries where
			// "closed at" and "late for" are decided.
			ns := at.UnixNano()
			ns -= mod(ns, spec.EffectiveHop().Nanoseconds())
			if rng.Intn(2) == 0 {
				ns += spec.Length.Nanoseconds()
			}
			at = time.Unix(0, ns)
		}
		key := fmt.Sprintf("g%02d", rng.Intn(12))
		id++
		ev := &event.Event{
			ID:      id,
			Time:    at,
			Subject: event.Entity{Type: event.EntityProcess, ExeName: key + ".exe", PID: int32(id)},
			Object:  event.Entity{Type: event.EntityNetConn, DstIP: fmt.Sprintf("10.0.0.%d", rng.Intn(5)), DstPort: int32(id)},
			Amount:  float64(rng.Intn(1000)),
		}
		op := "fold"
		switch r := rng.Intn(100); {
		case r < 57:
			p.fold(ev, key, rng.Intn(len(diffPatterns)))
		case r < 60:
			// Drop the id fold's cache: the directory forgets every key (a
			// class bounding its directory), or the manager is folded under
			// another directory altogether (a swapped query in a new class).
			op = "reset"
			if rng.Intn(3) == 0 {
				p.dir = new(Directory)
			} else {
				p.dir.Reset()
			}
		case r < 70:
			op = "touch"
			p.got.Touch(at)
			p.keyed.Touch(at)
			p.want.Touch(at)
		case r < 92:
			op = "advance"
			p.closeAll(op, func(m *Manager) []Closed { return m.Advance(at) }, p.want.Advance(at))
		case r < 94:
			op = "flush"
			p.closeAll(op, (*Manager).Flush, p.want.Flush())
		case r < 97:
			// Restore into fresh managers, as a restart does: everything, or
			// one replica's share of the groups with or without the
			// single-owner counters.
			op = "restore"
			blob := p.sameState(op)
			keep, disjoint := func(string) bool { return true }, true
			if rng.Intn(2) == 0 {
				shard := rng.Intn(2)
				keep = func(k string) bool { return int(k[2]-'0')%2 == shard }
				disjoint = rng.Intn(2) == 0
			}
			fresh := newDiffPair(t, spec, rng.Intn(2) == 0)
			fresh.dir = p.dir // the class's directory outlives a restored query
			fresh.readState(blob, keep, disjoint)
			fresh.assignSlots()
			p = fresh
			stash = blob
		default:
			// Merge an older checkpoint into live managers, as restoring
			// several shards' blobs into one replica does: its windows may
			// already lie behind the watermark.
			op = "merge"
			if stash != nil {
				p.readState(stash, nil, false)
			}
		}
		p.sameState(op)
	}
	p.closeAll("final flush", (*Manager).Flush, p.want.Flush())
	p.sameState("final flush")
}

// TestManagerMatchesReference runs pinned seeds and one fresh per run; the
// fresh one's subtests are labelled "seed=fresh" (its value is logged), so
// the suite's test names do not change from run to run.
func TestManagerMatchesReference(t *testing.T) {
	seeds := conformance.Seeds(t, 1, 2, 3, 4, 5, 6, 1792039904120696966)
	specs := []struct {
		name string
		spec Spec
	}{
		{"tumbling", Spec{Length: 10 * time.Second}},
		{"hopping", Spec{Length: 10 * time.Second, Hop: 3 * time.Second}},
		{"gapped", Spec{Length: 4 * time.Second, Hop: 11 * time.Second}},
	}
	for _, sc := range specs {
		for _, s := range seeds {
			t.Run(sc.name+"/"+s.Label, func(t *testing.T) {
				runManagerScript(t, sc.spec, s.Value, 1500)
			})
		}
	}
}
