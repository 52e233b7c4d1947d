package window

import (
	"testing"
	"testing/quick"
	"time"

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
	ids := s.AssignTo(base.Add(3 * time.Minute))
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
	ids = s.AssignTo(base.Add(10 * time.Minute))
	if len(ids) != 1 || !ids[0].Start().Equal(base.Add(10*time.Minute)) {
		t.Errorf("boundary assignment = %v", ids)
	}
}

func TestAssignToHopping(t *testing.T) {
	s := Spec{Length: 10 * time.Minute, Hop: 5 * time.Minute}
	ids := s.AssignTo(base.Add(7 * time.Minute))
	if len(ids) != 2 {
		t.Fatalf("hopping assignment = %d windows, want 2", len(ids))
	}
	if !ids[0].Start().Equal(base) || !ids[1].Start().Equal(base.Add(5*time.Minute)) {
		t.Errorf("window starts = %v, %v", ids[0].Start(), ids[1].Start())
	}
}

// Property: every assigned window actually contains the event time, and
// tumbling windows partition time (exactly one window per instant).
func TestAssignToProperty(t *testing.T) {
	s := Spec{Length: 10 * time.Minute}
	f := func(offsetMs uint32) bool {
		at := base.Add(time.Duration(offsetMs) * time.Millisecond)
		ids := s.AssignTo(at)
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
		ids := hop.AssignTo(at)
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

func TestManagerLifecycle(t *testing.T) {
	m, err := NewManager(Spec{Length: time.Minute}, specFields())
	if err != nil {
		t.Fatal(err)
	}
	groups := m.GroupFor(base.Add(10*time.Second), "g1")
	if len(groups) != 1 {
		t.Fatalf("groups = %d", len(groups))
	}
	g := groups[0]
	_ = g.Aggs[0].Add(value.Float(100))
	_ = g.Aggs[1].Add(value.Int(1))

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
	snap := m.SnapshotGroup(closed[0].ID, closed[0].Groups[0])
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
	m.GroupFor(base.Add(10*time.Second), "g")
	m.Advance(base.Add(2 * time.Minute))
	// This event belongs to the already-closed first window.
	if gs := m.GroupFor(base.Add(20*time.Second), "g"); len(gs) != 0 {
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
			for _, g := range m.GroupFor(at, key) {
				_ = g.Aggs[0].Add(value.Float(1))
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
	m.GroupFor(base, "g")
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
		ids := s.AssignTo(at)
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
	if ids := s.AssignTo(base.Add(30 * time.Second)); len(ids) != 1 {
		t.Errorf("in-window event assigned to %v", ids)
	}
	if ids := s.AssignTo(base.Add(3 * time.Minute)); len(ids) != 0 {
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
	m.GroupFor(at, "g") // warm: opens the window, sizes the scratch buffer
	if allocs := testing.AllocsPerRun(100, func() { m.GroupFor(at, "g") }); allocs != 0 {
		t.Errorf("tumbling GroupFor allocates %.1f objects/op, want 0", allocs)
	}

	hop, err := NewManager(Spec{Length: time.Minute, Hop: 10 * time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hop.GroupFor(at, "g")
	if allocs := testing.AllocsPerRun(100, func() { hop.GroupFor(at, "g") }); allocs != 0 {
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
	ids := s.AssignTo(at)
	if len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	if at.Before(ids[0].Start()) || !at.Before(s.End(ids[0])) {
		t.Errorf("window [%v, %v) does not contain %v", ids[0].Start(), s.End(ids[0]), at)
	}
}
