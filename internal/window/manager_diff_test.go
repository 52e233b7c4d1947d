package window

// Differential fence for the state maintainer: the deadline-driven Manager
// and the map-walking reference (manager_ref_test.go) execute the same
// seeded random script — folds, touches, watermark advances, flushes and
// checkpoint round trips under tumbling, hopping and gapped specs, with late
// and pre-epoch times — and must agree on everything observable: which
// windows close and in what order, their groups, aggregates, counts and
// representative bindings, the late-event count, and the checkpoint bytes.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

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

// diffPair drives one Manager and one refManager in lockstep.
type diffPair struct {
	t     *testing.T
	got   *Manager
	want  *refManager
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
	want, err := newRefManager(spec, diffFields)
	if err != nil {
		t.Fatal(err)
	}
	p := &diffPair{t: t, got: got, want: want}
	if declare {
		p.assignSlots()
	}
	return p
}

// assignSlots resolves the patterns' names against the Manager, as the
// engine does at compile time and after adopting a restored manager.
func (p *diffPair) assignSlots() {
	p.slots = p.slots[:0]
	for _, pat := range diffPatterns {
		s := struct{ subj, obj, alias int }{-1, -1, -1}
		if pat.subj != "" {
			s.subj = p.got.EntitySlot(pat.subj)
		}
		if pat.obj != "" {
			s.obj = p.got.EntitySlot(pat.obj)
		}
		if pat.alias != "" {
			s.alias = p.got.EventSlot(pat.alias)
		}
		p.slots = append(p.slots, s)
	}
}

// fold folds one hit of pattern pi into key's groups on both managers, with
// the engine's binding rules on each side.
func (p *diffPair) fold(ev *event.Event, key string, pi int) {
	p.t.Helper()
	gs := p.got.GroupFor(ev.Time, key)
	ws := p.want.GroupFor(ev.Time, key)
	if len(gs) != len(ws) {
		p.t.Fatalf("GroupFor(%v, %q): %d groups, reference %d", ev.Time.UnixNano(), key, len(gs), len(ws))
	}
	pat, s := diffPatterns[pi], p.slots[pi]
	vals := []value.Value{value.Float(ev.Amount), value.Int(1), value.String(ev.Object.DstIP), value.Float(ev.Amount)}
	for k, g := range gs {
		w := ws[k]
		if g.Key != w.Key {
			p.t.Fatalf("GroupFor group %d: key %q, reference %q", k, g.Key, w.Key)
		}
		g.Count++
		w.Count++
		if s.obj >= 0 && g.Entities[s.obj] == nil {
			g.Entities[s.obj] = &ev.Object
		}
		if s.subj >= 0 && g.Entities[s.subj] == nil {
			g.Entities[s.subj] = &ev.Subject
		}
		if s.alias >= 0 && g.Events[s.alias] == nil {
			g.Events[s.alias] = ev
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
			if err := g.Aggs[i].Add(v); err != nil {
				p.t.Fatal(err)
			}
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

// sameClosed compares two closed-window sequences.
func (p *diffPair) sameClosed(op string, got []Closed, want []refClosed) {
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
			snap := p.got.SnapshotGroup(g.ID, grp)
			fields := map[string]value.Value{}
			for fi, f := range diffFields {
				fields[f.Name] = snap.Fields[fi]
			}
			ents, evs := bindingsByName(p.got, snap)
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
	if p.got.LateEvents != p.want.LateEvents {
		p.t.Fatalf("after %s: LateEvents %d, reference %d", op, p.got.LateEvents, p.want.LateEvents)
	}
	if p.got.OpenWindows() != p.want.OpenWindows() {
		p.t.Fatalf("after %s: %d open windows, reference %d", op, p.got.OpenWindows(), p.want.OpenWindows())
	}
	a, err := p.got.AppendState(nil)
	if err != nil {
		p.t.Fatal(err)
	}
	b, err := p.want.AppendState(nil)
	if err != nil {
		p.t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		p.t.Fatalf("after %s: AppendState differs from the reference (%d vs %d bytes)", op, len(a), len(b))
	}
	return a
}

// readState folds blob into both managers.
func (p *diffPair) readState(blob []byte, keep func(string) bool, disjoint bool) {
	p.t.Helper()
	if err := p.got.ReadState(wire.NewReader(blob), keep, disjoint); err != nil {
		p.t.Fatal(err)
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
		case r < 60:
			p.fold(ev, key, rng.Intn(len(diffPatterns)))
		case r < 70:
			op = "touch"
			p.got.Touch(at)
			p.want.Touch(at)
		case r < 92:
			op = "advance"
			p.sameClosed(op, p.got.Advance(at), p.want.Advance(at))
		case r < 94:
			op = "flush"
			p.sameClosed(op, p.got.Flush(), p.want.Flush())
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
	p.sameClosed("final flush", p.got.Flush(), p.want.Flush())
	p.sameState("final flush")
}

func TestManagerMatchesReference(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, time.Now().UnixNano()}
	if s := os.Getenv("SAQL_CONFORMANCE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SAQL_CONFORMANCE_SEED %q: %v", s, err)
		}
		seeds = []int64{v}
	}
	specs := []struct {
		name string
		spec Spec
	}{
		{"tumbling", Spec{Length: 10 * time.Second}},
		{"hopping", Spec{Length: 10 * time.Second, Hop: 3 * time.Second}},
		{"gapped", Spec{Length: 4 * time.Second, Hop: 11 * time.Second}},
	}
	for _, sc := range specs {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				t.Logf("manager script seed = %d (set SAQL_CONFORMANCE_SEED=%d to reproduce)", seed, seed)
				runManagerScript(t, sc.spec, seed, 1500)
			})
		}
	}
}
