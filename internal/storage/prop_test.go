package storage

// Property-based tests for the segment record codec and the offset cursors:
// arbitrary events round-trip encode→decode losslessly, truncated records
// and corrupted CRCs are rejected cleanly (no panic, no partial event), and
// ScanFrom/Count agree with append order for every offset.

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"saql/internal/event"
)

// randomEntity draws a structurally valid entity.
func randomEntity(rng *rand.Rand) event.Entity {
	switch rng.Intn(3) {
	case 0:
		return event.Entity{
			Type:    event.EntityProcess,
			ExeName: randomString(rng),
			PID:     int32(rng.Uint32()),
			User:    randomString(rng),
			CmdLine: randomString(rng),
		}
	case 1:
		return event.Entity{Type: event.EntityFile, Path: randomString(rng)}
	default:
		return event.Entity{
			Type:     event.EntityNetConn,
			SrcIP:    randomString(rng),
			SrcPort:  int32(rng.Uint32()),
			DstIP:    randomString(rng),
			DstPort:  int32(rng.Uint32()),
			Protocol: randomString(rng),
		}
	}
}

func randomString(rng *rand.Rand) string {
	n := rng.Intn(24)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

func randomEvent(rng *rand.Rand) *event.Event {
	return &event.Event{
		ID:      rng.Uint64(),
		Time:    time.Unix(0, rng.Int63()-rng.Int63()),
		AgentID: randomString(rng),
		Subject: randomEntity(rng),
		Op:      event.Op(rng.Intn(9)),
		Object:  randomEntity(rng),
		Amount:  rng.NormFloat64() * 1e9,
	}
}

func eventsEqual(a, b *event.Event) bool {
	return a.ID == b.ID &&
		a.Time.Equal(b.Time) &&
		a.AgentID == b.AgentID &&
		a.Subject == b.Subject &&
		a.Op == b.Op &&
		a.Object == b.Object &&
		(a.Amount == b.Amount || (a.Amount != a.Amount && b.Amount != b.Amount)) // NaN-safe
}

// record frames one event the way AppendAll writes it.
func record(ev *event.Event) []byte {
	rec, _ := appendRecord(nil, nil, ev)
	return rec
}

// readRecords walks data as a segment, collecting every event it yields.
func readRecords(data []byte) ([]*event.Event, walked, error) {
	var evs []*event.Event
	w, err := walk("seg", data, 0, func(ev *event.Event) error {
		evs = append(evs, ev)
		return nil
	})
	return evs, w, err
}

func TestEventCodecRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ev := randomEvent(rng)
		rec := record(ev)
		got, w, err := readRecords(rec)
		if err != nil || len(got) != 1 {
			t.Logf("seed %d: walk yielded %d events: %v", seed, len(got), err)
			return false
		}
		if w.end != len(rec) {
			t.Logf("seed %d: consumed %d of %d bytes", seed, w.end, len(rec))
			return false
		}
		if !eventsEqual(ev, got[0]) {
			t.Logf("seed %d: round trip drifted:\n  in:  %+v\n  out: %+v", seed, ev, got[0])
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEventCodecRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		rec := record(randomEvent(rng))
		// Every truncation must fail cleanly, yielding nothing.
		cut := 1 + rng.Intn(len(rec)-1)
		if evs, _, err := readRecords(rec[:cut]); err == nil || len(evs) != 0 {
			t.Fatalf("truncated record (%d of %d bytes) yielded %d events, %v", cut, len(rec), len(evs), err)
		}
		// Any single-bit flip must be caught by the CRC (flips in the length
		// prefix may legally surface as truncation errors instead; either
		// way no event comes back).
		flipped := append([]byte(nil), rec...)
		flipped[rng.Intn(len(flipped))] ^= 1 << uint(rng.Intn(8))
		if evs, _, err := readRecords(flipped); err == nil || len(evs) != 0 {
			t.Fatalf("corrupted record yielded %d events, %v", len(evs), err)
		}
	}
}

func TestScanFromOffsetsProperty(t *testing.T) {
	dir := t.TempDir()
	// A small segment size forces rotation, so offset skipping crosses
	// segment boundaries and exercises the sidecar-count fast path.
	s, err := Open(dir, Options{MaxSegmentSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const n = 300
	var all []*event.Event
	for i := 0; i < n; i++ {
		ev := randomEvent(rng)
		ev.ID = uint64(i) // make order observable
		all = append(all, ev)
	}
	if err := s.AppendAll(all); err != nil {
		t.Fatal(err)
	}
	if tail, err := s.Tail(0); err != nil || tail.Count != n {
		t.Fatalf("Tail(0) = %+v, %v; want %d records", tail, err, n)
	}
	for _, offset := range []int64{0, 1, 99, 150, 299, 300, 301} {
		var got []uint64
		if err := s.ScanFrom(offset, Selection{}, collectIDs(&got)); err != nil {
			t.Fatalf("ScanFrom(%d): %v", offset, err)
		}
		want := 0
		if offset < n {
			want = n - int(offset)
		}
		if len(got) != want {
			t.Fatalf("ScanFrom(%d) yielded %d events, want %d", offset, len(got), want)
		}
		for i, id := range got {
			if id != uint64(int(offset)+i) {
				t.Fatalf("ScanFrom(%d)[%d].ID = %d, want %d (order broken)", offset, i, id, int(offset)+i)
			}
		}
	}
}

// TestScanFromWithSelection pins the interaction between the offset cursor
// and sidecar-index segment pruning: a pruned segment (whole time range or
// host set outside the selection) must still advance the record cursor by
// its count, so offsets keep indexing the global append order.
func TestScanFromWithSelection(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentSize: 1 << 9})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(0, 0)
	const n = 200
	var all []*event.Event
	for i := 0; i < n; i++ {
		host := "a"
		if i%2 == 1 {
			host = "b"
		}
		ev := &event.Event{
			ID:      uint64(i),
			Time:    base.Add(time.Duration(i) * time.Second),
			AgentID: host,
			Subject: event.Process("x", 1),
			Op:      event.OpWrite,
			Object:  event.File("/f"),
		}
		all = append(all, ev)
	}
	if err := s.AppendAll(all); err != nil {
		t.Fatal(err)
	}
	sel := Selection{
		Hosts: []string{"b"},
		From:  base.Add(50 * time.Second),
		To:    base.Add(150 * time.Second),
	}
	hosts := sel.hostSet()
	for _, offset := range []int64{0, 37, 100, 149, 199} {
		var got []uint64
		if err := s.ScanFrom(offset, sel, collectIDs(&got)); err != nil {
			t.Fatalf("ScanFrom(%d): %v", offset, err)
		}
		var want []uint64
		for i, ev := range all {
			if int64(i) >= offset && sel.matches(ev, hosts) {
				want = append(want, ev.ID)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("ScanFrom(%d) yielded %d events, want %d", offset, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ScanFrom(%d)[%d].ID = %d, want %d", offset, i, got[i], want[i])
			}
		}
	}
}

// TestRepairTornTail pins crash recovery of the journal file itself: a
// torn record at the end of the unsealed final segment (what an unsynced
// append leaves after a power loss) is trimmed by Tail, after which the
// durable prefix scans cleanly; corruption inside a sealed, indexed segment
// is never trimmed.
func TestRepairTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const n = 25
	for i := 0; i < n; i++ {
		ev := randomEvent(rng)
		ev.ID = uint64(i)
		if err := s.AppendAll([]*event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash: no seal, and a torn half-record at the tail.
	segs, err := s.listSegments()
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	path := filepath.Join(dir, segs[0])
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	full := record(randomEvent(rng))
	torn := full[:len(full)/2]
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Before the repair, the torn tail is a hard error to a reader.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.ScanFrom(0, Selection{}, func(*event.Event) error { return nil }); err == nil {
		t.Fatal("ScanFrom over a torn tail succeeded")
	}
	for round := 0; round < 2; round++ { // the second Tail finds a clean journal
		tail, err := s2.Tail(0)
		if err != nil || tail.Count != n {
			t.Fatalf("Tail(0), round %d = %+v, %v; want %d records", round, tail, err, n)
		}
		if after, err := os.Stat(path); err != nil || after.Size() != before.Size() {
			t.Fatalf("round %d: segment is %d bytes, want the %d before the tear", round, after.Size(), before.Size())
		}
		got := 0
		if err := tail.Each(func(*event.Event) error { got++; return nil }); err != nil || got != n {
			t.Fatalf("round %d: Each yielded %d, %v; want %d", round, got, err, n)
		}
	}

	// Corruption in a sealed (indexed) segment must not be trimmed:
	// MaxSegmentSize 1 seals every segment at append time, so the final
	// segment carries a sidecar index.
	dir2 := t.TempDir()
	sealed, err := Open(dir2, Options{MaxSegmentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sealed.AppendAll([]*event.Event{randomEvent(rng), randomEvent(rng), randomEvent(rng)}); err != nil {
		t.Fatal(err)
	}
	segs2, err := sealed.listSegments()
	if err != nil || len(segs2) != 3 {
		t.Fatalf("segments = %v, %v", segs2, err)
	}
	lastPath := filepath.Join(dir2, segs2[len(segs2)-1])
	data, err := os.ReadFile(lastPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xFF
	if err := os.WriteFile(lastPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := s3.Tail(0)
	if err != nil {
		t.Fatal(err)
	}
	var cerr *CorruptError
	if err := tail.Each(func(*event.Event) error { return nil }); !errors.As(err, &cerr) || cerr.Segment != segs2[2] {
		t.Fatalf("Each over a sealed corrupt segment = %v, want *CorruptError naming %s", err, segs2[2])
	}
	if after, err := os.ReadFile(lastPath); err != nil || !bytes.Equal(after, data) {
		t.Fatal("Tail trimmed a sealed corrupt segment")
	}
}
