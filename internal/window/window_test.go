package window

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"saql/internal/event"
	"saql/internal/value"
)

var base = time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

func specFields() []FieldSpec {
	return []FieldSpec{
		{Name: "total", AggName: "sum"},
		{Name: "n", AggName: "count"},
	}
}

func TestAssignToTumbling(t *testing.T) {
	s := Spec{Length: 10 * time.Minute}
	ids := s.AssignAppend(nil, base.Add(3*time.Minute))
	if len(ids) != 1 {
		t.Fatalf("tumbling assignment = %d windows, want 1", len(ids))
	}
	if !ids[0].Start().Equal(base) {
		t.Errorf("window start = %v, want %v", ids[0].Start(), base)
	}
	if !s.End(ids[0]).Equal(base.Add(10 * time.Minute)) {
		t.Errorf("window end = %v", s.End(ids[0]))
	}
	// Exactly on a boundary belongs to the window starting there.
	ids = s.AssignAppend(nil, base.Add(10*time.Minute))
	if len(ids) != 1 || !ids[0].Start().Equal(base.Add(10*time.Minute)) {
		t.Errorf("boundary assignment = %v", ids)
	}
}

func TestAssignToHopping(t *testing.T) {
	s := Spec{Length: 10 * time.Minute, Hop: 5 * time.Minute}
	ids := s.AssignAppend(nil, base.Add(7*time.Minute))
	if len(ids) != 2 {
		t.Fatalf("hopping assignment = %d windows, want 2", len(ids))
	}
	if !ids[0].Start().Equal(base) || !ids[1].Start().Equal(base.Add(5*time.Minute)) {
		t.Errorf("window starts = %v, %v", ids[0].Start(), ids[1].Start())
	}
}

// TestSliceAtBoundsWindowAssignment: for tumbling, hopping and gapped specs,
// at instants before and after the epoch and on window edges, SliceAt's
// bounds are window edges around t, every instant of the slice is assigned the
// windows t is, and the instants just outside it are not.
func TestSliceAtBoundsWindowAssignment(t *testing.T) {
	specs := []Spec{
		{Length: 10 * time.Second},
		{Length: 10 * time.Second, Hop: 3 * time.Second},
		{Length: 4 * time.Second, Hop: 11 * time.Second},
		{Length: 17 * time.Second, Hop: 17 * time.Second},
	}
	isEdge := func(s Spec, ns int64) bool {
		hop := s.EffectiveHop().Nanoseconds()
		return mod(ns, hop) == 0 || mod(ns-s.Length.Nanoseconds(), hop) == 0
	}
	same := func(a, b []ID) bool { return fmt.Sprint(a) == fmt.Sprint(b) }
	for _, s := range specs {
		f := func(off int64) bool {
			at := off%int64(time.Hour) - int64(30*time.Minute)
			if off%5 == 0 { // land on an edge
				at -= mod(at, s.EffectiveHop().Nanoseconds())
			}
			start, end := s.SliceAt(at)
			if start > at || end <= at || !isEdge(s, start) || !isEdge(s, end) {
				return false
			}
			want := s.AssignAppend(nil, time.Unix(0, at))
			for _, x := range []int64{start, (start + end) / 2, end - 1, at} {
				if !same(s.AssignAppend(nil, time.Unix(0, x)), want) {
					return false
				}
			}
			// No edge strictly inside: the slices of its ends are neighbours.
			if _, e := s.SliceAt(start); e != end {
				return false
			}
			return !same(s.AssignAppend(nil, time.Unix(0, start-1)), want) && !same(s.AssignAppend(nil, time.Unix(0, end)), want)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
}

// Property: every assigned window actually contains the event time, and
// tumbling windows partition time (exactly one window per instant).
func TestAssignToProperty(t *testing.T) {
	s := Spec{Length: 10 * time.Minute}
	f := func(offsetMs uint32) bool {
		at := base.Add(time.Duration(offsetMs) * time.Millisecond)
		ids := s.AssignAppend(nil, at)
		if len(ids) != 1 {
			return false
		}
		start := ids[0].Start()
		return !at.Before(start) && at.Before(s.End(ids[0]))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	hop := Spec{Length: 10 * time.Minute, Hop: 2 * time.Minute}
	g := func(offsetMs uint32) bool {
		at := base.Add(time.Duration(offsetMs) * time.Millisecond)
		ids := hop.AssignAppend(nil, at)
		if len(ids) != 5 { // Length/Hop windows contain each instant
			return false
		}
		for _, id := range ids {
			if at.Before(id.Start()) || !at.Before(hop.End(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// testDir keys the tests' folds: one directory serves every manager here, as
// one key class's directory serves all its members.
var testDir Directory

// keyed is GroupFor under key: one probe of testDir, then the id fold.
func keyed(m *Manager, at time.Time, key string) []*Group {
	return m.GroupFor(at, &testDir, testDir.Resolve(HashKey(key), key))
}

// A directory hands out dense ids in first-seen order, finds every key again
// however its table grew and however the hashes collide in their low bits
// (ownership routing hands a shard only keys of one residue), and forgets them
// all on Reset under a new epoch.
func TestDirectoryResolve(t *testing.T) {
	var d Directory
	const n = 5000
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("svc-%d.exe", i)
			hash := HashKey(key)
			if round == 1 {
				hash = uint32(i%7) << 29 // forced collisions in the low bits
				hash |= 8                // and a shared residue
			}
			if id := d.Resolve(hash, key); int(id) != i || d.keys[id] != key {
				t.Fatalf("round %d: Resolve(%q) = %d (key %q), want %d", round, key, id, d.keys[id], i)
			}
		}
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("svc-%d.exe", i)
			hash := HashKey(key)
			if round == 1 {
				hash = uint32(i%7)<<29 | 8
			}
			if id := d.Resolve(hash, key); int(id) != i {
				t.Fatalf("round %d: second Resolve(%q) = %d, want %d", round, key, id, i)
			}
		}
		if d.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, d.Len(), n)
		}
		epoch := d.Epoch()
		d.Reset()
		if d.Len() != 0 || d.Epoch() == epoch {
			t.Fatalf("Reset: Len %d, epoch %d -> %d", d.Len(), epoch, d.Epoch())
		}
	}
	for _, key := range []string{"", "nginx", "p\x1f10.0.0.9"} {
		f := fnv.New32a()
		f.Write([]byte(key))
		if HashKey(key) != f.Sum32() {
			t.Errorf("HashKey(%q) = %#x, FNV-1a says %#x", key, HashKey(key), f.Sum32())
		}
	}
}

// Folding by id allocates nothing once the directory and the window's index
// know the key, and a directory reset between two folds lands the second in
// the same group through the key table.
func TestGroupForByIDAcrossReset(t *testing.T) {
	m, err := NewManager(Spec{Length: time.Minute}, specFields())
	if err != nil {
		t.Fatal(err)
	}
	var d Directory
	at := base.Add(time.Second)
	g1 := m.GroupFor(at, &d, d.Resolve(HashKey("a"), "a"))[0]
	d.Resolve(HashKey("b"), "b")
	d.Reset()
	idB := d.Resolve(HashKey("b"), "b") // "b" now holds the id "a" had
	idA := d.Resolve(HashKey("a"), "a")
	if gb := m.GroupFor(at, &d, idB)[0]; gb == g1 || gb.Key != "b" {
		t.Fatalf("after a reset id %d reached group %q", idB, gb.Key)
	}
	if ga := m.GroupFor(at, &d, idA)[0]; ga != g1 {
		t.Fatalf("after a reset key a reached a new group")
	}
	if allocs := testing.AllocsPerRun(100, func() { m.GroupFor(at, &d, idA) }); allocs != 0 {
		t.Errorf("GroupFor by id allocates %.1f objects/op, want 0", allocs)
	}
}

func TestManagerLifecycle(t *testing.T) {
	m, err := NewManager(Spec{Length: time.Minute}, specFields())
	if err != nil {
		t.Fatal(err)
	}
	groups := keyed(m, base.Add(10*time.Second), "g1")
	if len(groups) != 1 {
		t.Fatalf("groups = %d", len(groups))
	}
	g := groups[0]
	_, _ = g.Aggs[0].AddAll([]value.Value{value.Float(100)})
	_, _ = g.Aggs[1].AddAll([]value.Value{value.Int(1)})

	if closed := m.Advance(base.Add(30 * time.Second)); len(closed) != 0 {
		t.Errorf("window closed early: %v", closed)
	}
	closed := m.Advance(base.Add(61 * time.Second))
	if len(closed) != 1 {
		t.Fatalf("closed = %d, want 1", len(closed))
	}
	if len(closed[0].Groups) != 1 || closed[0].Groups[0].Key != "g1" {
		t.Fatalf("closed groups = %v, want [g1]", closed[0].Groups)
	}
	h := m.NewHistory(1)
	h.PushGroup(closed[0].ID, closed[0].Groups[0])
	snap := h.At(0)
	if got, _ := snap.Fields[0].AsFloat(); got != 100 {
		t.Errorf("total = %v", snap.Fields[0])
	}
	if snap.Fields[1].IntVal() != 1 {
		t.Errorf("n = %v", snap.Fields[1])
	}
	if m.OpenWindows() != 0 {
		t.Errorf("open windows = %d", m.OpenWindows())
	}
}

func TestManagerLateEvents(t *testing.T) {
	m, err := NewManager(Spec{Length: time.Minute}, specFields())
	if err != nil {
		t.Fatal(err)
	}
	keyed(m, base.Add(10*time.Second), "g")
	m.Advance(base.Add(2 * time.Minute))
	// This event belongs to the already-closed first window.
	if gs := keyed(m, base.Add(20*time.Second), "g"); len(gs) != 0 {
		t.Errorf("late event assigned to %d windows, want 0", len(gs))
	}
	if m.LateEvents != 1 {
		t.Errorf("late events = %d", m.LateEvents)
	}
}

func TestManagerMultipleGroupsAndWindows(t *testing.T) {
	m, _ := NewManager(Spec{Length: time.Minute}, specFields())
	for i := 0; i < 5; i++ {
		at := base.Add(time.Duration(i*30) * time.Second)
		for _, key := range []string{"a", "b"} {
			for _, g := range keyed(m, at, key) {
				_, _ = g.Aggs[0].AddAll([]value.Value{value.Float(1)})
			}
		}
	}
	closed := m.Advance(base.Add(5 * time.Minute))
	if len(closed) != 3 {
		t.Fatalf("closed = %d, want 3", len(closed))
	}
	for _, c := range closed {
		if len(c.Groups) != 2 {
			t.Errorf("window %v groups = %d, want 2", c.ID.Start(), len(c.Groups))
		}
	}
	// Closure order is ascending.
	for i := 1; i < len(closed); i++ {
		if closed[i].ID < closed[i-1].ID {
			t.Error("closed windows out of order")
		}
	}
}

func TestManagerFlush(t *testing.T) {
	m, _ := NewManager(Spec{Length: time.Hour}, specFields())
	keyed(m, base, "g")
	closed := m.Flush()
	if len(closed) != 1 {
		t.Fatalf("flush closed = %d", len(closed))
	}
	if m.OpenWindows() != 0 {
		t.Error("flush left windows open")
	}
}

func TestEmptySnapshot(t *testing.T) {
	m, _ := NewManager(Spec{Length: time.Minute}, []FieldSpec{
		{Name: "s", AggName: "sum"},
		{Name: "st", AggName: "set"},
	})
	snap := m.EmptySnapshot(ID(base.UnixNano()))
	if got, _ := snap.Fields[0].AsFloat(); got != 0 {
		t.Errorf("empty sum = %v", snap.Fields[0])
	}
	if snap.Fields[1].SetLen() != 0 {
		t.Errorf("empty set = %v", snap.Fields[1])
	}
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Spec{Length: 0}, nil); err == nil {
		t.Error("zero-length window should fail")
	}
	if _, err := NewManager(Spec{Length: time.Second}, []FieldSpec{{Name: "x", AggName: "bogus"}}); err == nil {
		t.Error("bad aggregator should fail at manager construction")
	}
}

func TestHistoryRing(t *testing.T) {
	m, err := NewManager(Spec{Length: time.Minute}, []FieldSpec{{Name: "x", AggName: "sum"}})
	if err != nil {
		t.Fatal(err)
	}
	h := m.NewHistory(3)
	for i := 1; i <= 5; i++ {
		h.Push(&Snapshot{Fields: []value.Value{value.Int(int64(i))}})
	}
	if h.Len() != 3 || h.Total() != 5 || h.Depth() != 3 {
		t.Errorf("len/total/depth = %d/%d/%d", h.Len(), h.Total(), h.Depth())
	}
	// Index 0 is newest.
	for k, want := range map[int]int64{0: 5, 1: 4, 2: 3} {
		if v := h.Field(k, 0); v.IntVal() != want {
			t.Errorf("ss[%d].x = %v, want %d", k, v, want)
		}
	}
	if h.At(3) != nil {
		t.Error("out-of-range At should be nil")
	}
	// Missing index and missing field resolve to null (tolerant).
	if v := h.Field(9, 0); !v.IsNull() {
		t.Errorf("missing index = %v", v)
	}
	if v := h.Field(0, 1); !v.IsNull() {
		t.Errorf("missing field = %v", v)
	}
}

// A closed window handed back with Recycle gives its groups to the windows
// that open next, aggregators and binding slices included: each reused group
// starts empty, and the snapshots histories froze from the groups own their
// storage and stay as they were.
func TestRecycleLeavesSnapshotsAlone(t *testing.T) {
	m, err := NewManager(Spec{Length: time.Minute}, []FieldSpec{
		{Name: "total", AggName: "sum"},
		{Name: "keys", AggName: "set"},
	})
	if err != nil {
		t.Fatal(err)
	}
	pSlot, eSlot := m.EntitySlot("p"), m.EventSlot("e")
	fold := func(at time.Time, key string, id uint64) {
		ev := &event.Event{ID: id, Time: at, Subject: event.Process(key+".exe", int32(id))}
		for _, g := range keyed(m, at, key) {
			g.Count++
			if g.Entities[pSlot] == nil {
				g.Entities[pSlot] = &ev.Subject
			}
			if g.Events[eSlot] == nil {
				g.Events[eSlot] = ev
			}
			_, _ = g.Aggs[0].AddAll([]value.Value{value.Float(float64(id))})
			_, _ = g.Aggs[1].AddAll([]value.Value{value.String(key)})
		}
	}
	render := func(s *Snapshot) string {
		return fmt.Sprintf("%d #%d %v %s %d", s.WindowID, s.Count, s.Fields, s.Entities[pSlot].ExeName, s.Events[eSlot].ID)
	}

	for i, key := range []string{"a", "b", "c"} {
		fold(base.Add(time.Duration(i)*time.Second), key, uint64(10+i))
	}
	closed := m.Advance(base.Add(time.Minute))
	if len(closed) != 1 {
		t.Fatalf("closed %d windows, want 1", len(closed))
	}
	histories, want := map[string]*History{}, map[string]string{}
	first := map[*Group]bool{}
	for _, g := range closed[0].Groups {
		h := m.NewHistory(2)
		h.PushGroup(closed[0].ID, g)
		histories[g.Key], want[g.Key] = h, render(h.At(0))
		first[g] = true
	}
	m.Recycle(closed)
	m.Recycle(closed) // a second hand-back of the same windows does nothing
	if closed[0].Groups != nil {
		t.Error("a recycled Closed still lists its groups")
	}

	for i, key := range []string{"x", "y", "z"} {
		fold(base.Add(time.Minute+time.Duration(i)*time.Second), key, uint64(20+i))
	}
	next := m.Flush()
	for _, g := range next[0].Groups {
		if !first[g] {
			t.Errorf("group %q is new: the recycled groups were not reused", g.Key)
		}
		h := m.NewHistory(1)
		h.PushGroup(next[0].ID, g)
		if got, want := render(h.At(0)), fmt.Sprintf("%d #1 [%d {%s}] %s.exe %d", next[0].ID, 20+strings.Index("xyz", g.Key), g.Key, g.Key, 20+strings.Index("xyz", g.Key)); got != want {
			t.Errorf("reused group %q: %s, want %s", g.Key, got, want)
		}
	}
	for key, h := range histories {
		if got := render(h.At(0)); got != want[key] {
			t.Errorf("snapshot of %q changed when its group was reused: %s, want %s", key, got, want[key])
		}
	}
}

func TestHistoryDepthClamp(t *testing.T) {
	m, _ := NewManager(Spec{Length: time.Minute}, nil)
	h := m.NewHistory(0)
	h.Push(&Snapshot{})
	if h.Depth() != 1 || h.Len() != 1 {
		t.Errorf("depth/len = %d/%d", h.Depth(), h.Len())
	}
}

func TestAssignToHoppingAscendingNoSort(t *testing.T) {
	// Dense hopping spec: every instant is in Length/Hop windows and the
	// IDs must come out in ascending order straight from the emitter.
	s := Spec{Length: 10 * time.Minute, Hop: time.Minute}
	for off := 0; off < 25; off++ {
		at := base.Add(time.Duration(off) * 37 * time.Second)
		ids := s.AssignAppend(nil, at)
		if len(ids) != 10 {
			t.Fatalf("at +%d: %d windows, want 10", off, len(ids))
		}
		for i := range ids {
			if i > 0 && ids[i] <= ids[i-1] {
				t.Fatalf("at +%d: ids not strictly ascending: %v", off, ids)
			}
			if at.Before(ids[i].Start()) || !at.Before(s.End(ids[i])) {
				t.Fatalf("at +%d: window %v does not contain event", off, ids[i].Start())
			}
		}
	}
}

func TestAssignToGappedHop(t *testing.T) {
	// Hop larger than length leaves gaps: events in a gap belong nowhere.
	s := Spec{Length: time.Minute, Hop: 5 * time.Minute}
	if ids := s.AssignAppend(nil, base.Add(30*time.Second)); len(ids) != 1 {
		t.Errorf("in-window event assigned to %v", ids)
	}
	if ids := s.AssignAppend(nil, base.Add(3*time.Minute)); len(ids) != 0 {
		t.Errorf("gap event assigned to %v", ids)
	}
}

// The ring must not allocate once its storage exists, and window
// assignment through the manager's scratch buffer must not allocate at all.
func TestHotPathAllocations(t *testing.T) {
	m, err := NewManager(Spec{Length: time.Minute}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := m.NewHistory(8)
	snap := &Snapshot{}
	h.Push(snap) // first push allocates the ring storage
	if allocs := testing.AllocsPerRun(100, func() { h.Push(snap) }); allocs != 0 {
		t.Errorf("History.Push allocates %.1f objects/op, want 0", allocs)
	}

	at := base.Add(10 * time.Second)
	keyed(m, at, "g") // warm: opens the window, sizes the scratch buffer
	if allocs := testing.AllocsPerRun(100, func() { keyed(m, at, "g") }); allocs != 0 {
		t.Errorf("tumbling GroupFor allocates %.1f objects/op, want 0", allocs)
	}

	hop, err := NewManager(Spec{Length: time.Minute, Hop: 10 * time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	keyed(hop, at, "g")
	if allocs := testing.AllocsPerRun(100, func() { keyed(hop, at, "g") }); allocs != 0 {
		t.Errorf("hopping GroupFor allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkHistoryPush(b *testing.B) {
	m, _ := NewManager(Spec{Length: time.Minute}, nil)
	h := m.NewHistory(8)
	snap := &Snapshot{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(snap)
	}
}

func BenchmarkAssignAppend(b *testing.B) {
	at := base.Add(17 * time.Second)
	b.Run("tumbling", func(b *testing.B) {
		s := Spec{Length: time.Minute}
		var ids []ID
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ids = s.AssignAppend(ids[:0], at)
		}
	})
	b.Run("hopping", func(b *testing.B) {
		s := Spec{Length: time.Minute, Hop: 10 * time.Second}
		var ids []ID
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ids = s.AssignAppend(ids[:0], at)
		}
	})
}

func TestNegativeTimeAlignment(t *testing.T) {
	// Events before the epoch must still align consistently.
	s := Spec{Length: time.Minute}
	at := time.Unix(-90, 0)
	ids := s.AssignAppend(nil, at)
	if len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	if at.Before(ids[0].Start()) || !at.Before(s.End(ids[0])) {
		t.Errorf("window [%v, %v) does not contain %v", ids[0].Start(), s.End(ids[0]), at)
	}
}
