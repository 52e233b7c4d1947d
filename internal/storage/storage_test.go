package storage

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"saql/internal/event"
)

var base = time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

func sampleEvents(n int) []*event.Event {
	out := make([]*event.Event, n)
	for i := range out {
		agent := "host-a"
		if i%3 == 0 {
			agent = "host-b"
		}
		out[i] = &event.Event{
			ID:      uint64(i + 1),
			Time:    base.Add(time.Duration(i) * time.Second),
			AgentID: agent,
			Subject: event.Process("sqlservr.exe", 1680),
			Op:      event.OpWrite,
			Object:  event.NetConn("10.0.0.2", 1433, "10.0.1.5", 49000),
			Amount:  float64(i) * 100,
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleEvents(100)
	if err := s.AppendAll(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAll(Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.ID != w.ID || !g.Time.Equal(w.Time) || g.AgentID != w.AgentID ||
			g.Op != w.Op || g.Amount != w.Amount ||
			g.Subject != w.Subject || g.Object != w.Object {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionFilters(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	evs := sampleEvents(90)
	if err := s.AppendAll(evs); err != nil {
		t.Fatal(err)
	}

	onlyB, err := s.ReadAll(Selection{Hosts: []string{"host-b"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(onlyB) != 30 {
		t.Errorf("host-b events = %d, want 30", len(onlyB))
	}
	for _, ev := range onlyB {
		if ev.AgentID != "host-b" {
			t.Fatal("host filter leaked")
		}
	}

	slice, err := s.ReadAll(Selection{From: base.Add(10 * time.Second), To: base.Add(20 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if len(slice) != 10 {
		t.Errorf("time slice = %d events, want 10", len(slice))
	}
	for _, ev := range slice {
		if ev.Time.Before(base.Add(10*time.Second)) || !ev.Time.Before(base.Add(20*time.Second)) {
			t.Fatal("time filter leaked")
		}
	}

	none, err := s.ReadAll(Selection{Hosts: []string{"host-z"}})
	if err != nil || len(none) != 0 {
		t.Errorf("unknown host = %d events, %v", len(none), err)
	}
}

func TestSegmentRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{MaxSegmentSize: 1024})
	if err := s.AppendAll(sampleEvents(200)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	var segs, idxs int
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".seg":
			segs++
		case ".idx":
			idxs++
		}
	}
	if segs < 2 {
		t.Errorf("segments = %d, want rotation", segs)
	}
	if idxs != segs {
		t.Errorf("idx sidecars = %d, segments = %d", idxs, segs)
	}

	// Re-open and keep appending; old data must survive.
	s2, err := Open(dir, Options{MaxSegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	extra := sampleEvents(10)
	for _, ev := range extra {
		ev.Time = base.Add(time.Hour)
	}
	if err := s2.AppendAll(extra); err != nil {
		t.Fatal(err)
	}
	all, err := s2.ReadAll(Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 210 {
		t.Errorf("total after reopen = %d, want 210", len(all))
	}
}

func TestScanAbort(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	_ = s.AppendAll(sampleEvents(50))
	n := 0
	err := s.ScanFrom(0, Selection{}, func(*event.Event) error {
		n++
		if n == 10 {
			return os.ErrClosed
		}
		return nil
	})
	if err == nil || n != 10 {
		t.Errorf("scan abort: n=%d err=%v", n, err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	_ = s.AppendAll(sampleEvents(5))
	_ = s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	data, _ := os.ReadFile(segs[0])
	data[len(data)/2] ^= 0xFF // flip a bit mid-file
	_ = os.WriteFile(segs[0], data, 0o644)

	s2, _ := Open(dir, Options{})
	if _, err := s2.ReadAll(Selection{}); err == nil {
		t.Error("corrupted segment read without error")
	}
}

func TestAllEntityTypesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	proc := event.Process("x.exe", 42)
	proc.User = "alice"
	proc.CmdLine = "x.exe -v"
	evs := []*event.Event{
		{ID: 1, Time: base, AgentID: "h", Subject: proc, Op: event.OpStart, Object: event.Process("y.exe", 43)},
		{ID: 2, Time: base.Add(time.Second), AgentID: "h", Subject: proc, Op: event.OpWrite, Object: event.File(`C:\a b\f.txt`), Amount: 12.5},
		{ID: 3, Time: base.Add(2 * time.Second), AgentID: "h", Subject: proc, Op: event.OpConnect, Object: event.NetConn("1.2.3.4", 555, "5.6.7.8", 443)},
	}
	_ = s.AppendAll(evs)
	got, err := s.ReadAll(Selection{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		if got[i].Subject != evs[i].Subject || got[i].Object != evs[i].Object {
			t.Errorf("event %d entities mismatch: %+v vs %+v", i, got[i], evs[i])
		}
	}
}

// Property: encode/decode round-trips arbitrary events.
func TestCodecProperty(t *testing.T) {
	f := func(id uint64, ns int64, agent, exe string, pid int32, path string, amount float64) bool {
		ev := &event.Event{
			ID:      id,
			Time:    time.Unix(0, ns),
			AgentID: agent,
			Subject: event.Process(exe, pid),
			Op:      event.OpWrite,
			Object:  event.File(path),
			Amount:  amount,
		}
		rec := record(ev)
		evs, w, err := readRecords(rec)
		if err != nil || len(evs) != 1 || w.end != len(rec) {
			return false
		}
		got := evs[0]
		return got.ID == ev.ID && got.Time.Equal(ev.Time) && got.AgentID == ev.AgentID &&
			got.Subject == ev.Subject && got.Object == ev.Object &&
			(got.Amount == ev.Amount || (got.Amount != got.Amount && ev.Amount != ev.Amount))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSelectionOnSegmentEdges puts the bounds of a Selection exactly on the
// first and last events of sealed segments — From is inclusive, To exclusive
// — and holds ReadAll and ScanFrom at several offsets to the events
// sel.matches admits from the appended stream itself, so a sidecar time-range
// skip that drops a segment whose last event sits on From (or keeps one whose
// first sits on To and then yields it) fails here.
func TestSelectionOnSegmentEdges(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Three sealed segments of three events each, at seconds 0–2, 3–5 and
	// 6–8, then an active one at 9–10; host-b holds every third event, the
	// first of each segment.
	all := sampleEvents(11)
	for _, seg := range [][]*event.Event{all[0:3], all[3:6], all[6:9], all[9:]} {
		if err := s.AppendAll(seg); err != nil {
			t.Fatal(err)
		}
		if len(seg) == 3 {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if idx, _ := filepath.Glob(filepath.Join(dir, "*.idx")); len(idx) != 3 {
		t.Fatalf("%d sealed segments, want 3", len(idx))
	}
	at := func(sec int) time.Time { return base.Add(time.Duration(sec) * time.Second) }
	for _, c := range []struct {
		name string
		sel  Selection
	}{
		{"from-last-of-first", Selection{From: at(2)}},
		{"to-first-of-second", Selection{To: at(3)}},
		{"last-of-first-only", Selection{From: at(2), To: at(3)}},
		{"exactly-second", Selection{From: at(3), To: at(6)}},
		{"last-of-second-to-first-of-third", Selection{From: at(5), To: at(6)}},
		{"from-last-of-third", Selection{From: at(8)}},
		{"from-first-of-active", Selection{From: at(9)}},
		{"to-first-of-active", Selection{From: at(8), To: at(9)}},
		{"empty-on-an-edge", Selection{From: at(6), To: at(6)}},
		{"host-on-edges", Selection{Hosts: []string{"host-b"}, From: at(3), To: at(9)}},
	} {
		hosts := c.sel.hostSet()
		for _, offset := range []int{0, 2, 3, 5, 9} {
			var want []uint64
			for _, ev := range all[offset:] {
				if c.sel.matches(ev, hosts) {
					want = append(want, ev.ID)
				}
			}
			var got []uint64
			if err := s.ScanFrom(int64(offset), c.sel, collectIDs(&got)); err != nil {
				t.Fatalf("%s: ScanFrom(%d): %v", c.name, offset, err)
			}
			if !sameIDs(got, want) {
				t.Errorf("%s: ScanFrom(%d) yields %v, the selection admits %v", c.name, offset, got, want)
			}
			if offset > 0 {
				continue
			}
			evs, err := s.ReadAll(c.sel)
			if err != nil {
				t.Fatalf("%s: ReadAll: %v", c.name, err)
			}
			got = got[:0]
			for _, ev := range evs {
				got = append(got, ev.ID)
			}
			if !sameIDs(got, want) {
				t.Errorf("%s: ReadAll reads %v, the selection admits %v", c.name, got, want)
			}
		}
	}
}

// TestRepairedSegmentGetsSidecar crashes a journal mid-append — one sealed
// segment, then a final one never sealed and ending in a torn record — and
// recovers it with Tail, as Restore does. The repair trims the tear and
// seals the segment, so a second Tail on the directory counts it by its
// sidecar without reading it, and a selection outside its time range skips
// it unread.
func TestRepairedSegmentGetsSidecar(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := sampleEvents(10) // one a second; host-b holds seconds 0, 3, 6 and 9
	if err := s.AppendAll(all[:4]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAll(all[4:]); err != nil {
		t.Fatal(err)
	}
	const final = "events-000002.seg"
	path := filepath.Join(dir, final)
	whole, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// The crash: the final segment is never sealed, and its last append
	// was torn.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec := record(sampleEvents(11)[10])
	if _, err := f.Write(rec[:len(rec)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, sealed := s.readMeta(final); sealed {
		t.Fatal("the crashed segment already has a sidecar")
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := r.Tail(4)
	if err != nil || tail.Count != 10 {
		t.Fatalf("Tail(4) = %+v, %v; want 10 records", tail, err)
	}
	var got []uint64
	if err := tail.Each(collectIDs(&got)); err != nil || !sameIDs(got, []uint64{5, 6, 7, 8, 9, 10}) {
		t.Fatalf("the repaired tail yields %v, %v; want IDs 5–10", got, err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != whole.Size() {
		t.Fatalf("the repaired segment holds %v bytes (%v), want the %d before the tear", fi.Size(), err, whole.Size())
	}
	at := func(sec int) time.Time { return base.Add(time.Duration(sec) * time.Second) }
	want := segMeta{MinTime: at(4).UnixNano(), MaxTime: at(9).UnixNano(), Count: 6,
		Hosts: map[string]bool{"host-a": true, "host-b": true}}
	if meta, _ := r.readMeta(final); meta == nil || !reflect.DeepEqual(*meta, want) {
		t.Fatalf("the repaired segment's sidecar reads %+v, want %+v", meta, want)
	}

	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tail, err = again.Tail(10)
	if err != nil || tail.Count != 10 {
		t.Fatalf("second Tail(10) = %+v, %v; want 10 records", tail, err)
	}
	if again.segReads != 0 || again.decoded != 0 {
		t.Fatalf("second Tail read %d segments and decoded %d records, want none: both are sealed", again.segReads, again.decoded)
	}
	if wm, ok := tail.Before.Time(); !ok || !wm.Equal(at(9)) {
		t.Fatalf("second Tail.Before = %v (%v), want the last record's time %v", wm, ok, at(9))
	}
	got = got[:0]
	if err := again.ScanFrom(0, Selection{To: at(4)}, collectIDs(&got)); err != nil || !sameIDs(got, []uint64{1, 2, 3, 4}) {
		t.Fatalf("a selection before the repaired segment yields %v, %v; want IDs 1–4", got, err)
	}
	if again.segReads != 1 || again.decoded != 4 {
		t.Fatalf("a selection before the repaired segment read %d segments and decoded %d records, want 1 and 4: the repaired one skipped", again.segReads, again.decoded)
	}
}
