package storage

// The single walker held to the loops it replaced (scan_ref_test.go), the
// reusing encoder held to the allocating one and to a golden segment, and
// the counters that show a seek decodes only what it yields.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"saql/internal/conformance"
	"saql/internal/event"
)

// journalEvent is a random event of any entity types, with an ID that
// makes order observable and a host and time a Selection can cut on.
func journalEvent(rng *rand.Rand, i int) *event.Event {
	ev := randomEvent(rng)
	ev.ID = uint64(i)
	ev.AgentID = []string{"a", "b", "c"}[rng.Intn(3)]
	ev.Time = base.Add(time.Duration(i)*time.Second + time.Duration(rng.Intn(1000)))
	return ev
}

func randomSelection(rng *rand.Rand, n int) Selection {
	var sel Selection
	if rng.Intn(2) == 0 {
		sel.Hosts = [][]string{{"a"}, {"b", "c"}, {"z"}}[rng.Intn(3)]
	}
	if rng.Intn(2) == 0 {
		sel.From = base.Add(time.Duration(rng.Intn(n+1)) * time.Second)
	}
	if rng.Intn(2) == 0 {
		sel.To = base.Add(time.Duration(rng.Intn(n+1)) * time.Second)
	}
	return sel
}

// refScanFrom is ScanFrom as it stood over refScanSegment: sidecar counts
// advance the cursor past skipped segments, everything else is decoded.
func refScanFrom(s *Store, offset int64, sel Selection, yield func(*event.Event) error) (int64, error) {
	segs, err := s.listSegments()
	if err != nil {
		return 0, err
	}
	hosts := sel.hostSet()
	var pos int64
	for _, seg := range segs {
		meta, _ := s.readMeta(seg)
		if meta != nil && (pos+meta.Count <= offset || !sel.segmentOverlaps(meta)) {
			pos += meta.Count
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, seg))
		if err != nil {
			return pos, err
		}
		n, err := refScanSegment(seg, data, sel, hosts, max(offset-pos, 0), yield)
		pos += n
		if err != nil {
			return pos, err
		}
	}
	return pos, nil
}

func collectIDs(out *[]uint64) func(*event.Event) error {
	return func(ev *event.Event) error {
		*out = append(*out, ev.ID)
		return nil
	}
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWalkMatchesReference builds random multi-segment journals, crashes
// some of them (final segment unsealed, its tail cut, zero-filled or
// overwritten with noise), and holds every read entry to the oracle: Tail
// truncates exactly where the decode-everything Repair did, and Count,
// ScanFrom and Tail.Each then see the same records for random offsets and
// selections. Without the repair both sides refuse the torn journal.
func TestWalkMatchesReference(t *testing.T) {
	for _, sd := range conformance.Seeds(t, 17) {
		seed := sd.Value
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 120; round++ {
			walkRound(t, rng, fmt.Sprintf("seed %d round %d", seed, round))
		}
	}
}

func walkRound(t *testing.T, rng *rand.Rand, label string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentSize: int64(256 + rng.Intn(4096))})
	if err != nil {
		t.Fatal(err)
	}
	n := rng.Intn(200)
	for i := 0; i < n; {
		k := min(1+rng.Intn(40), n-i)
		batch := make([]*event.Event, k)
		for j := range batch {
			batch[j] = journalEvent(rng, i+j)
		}
		if err := s.AppendAll(batch); err != nil {
			t.Fatal(err)
		}
		i += k
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := s.listSegments()
	if err != nil {
		t.Fatal(err)
	}

	// The crash: the last segment loses its sidecar and, mostly, part of its
	// tail.
	torn := false
	if len(segs) > 0 && rng.Intn(3) > 0 {
		last := filepath.Join(dir, segs[len(segs)-1])
		if err := os.Remove(s.metaPath(segs[len(segs)-1])); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(4) {
		case 0: // a clean unsealed segment
		case 1:
			data = data[:rng.Intn(len(data)+1)]
		case 2:
			data = append(data, make([]byte, 1+rng.Intn(64))...)
		case 3:
			noise := make([]byte, 1+rng.Intn(64))
			rng.Read(noise)
			data = append(data[:rng.Intn(len(data)+1)], noise...)
		}
		if err := os.WriteFile(last, data, 0o644); err != nil {
			t.Fatal(err)
		}
		torn = refRepairOffset(data) != len(data)
		wantEnd := refRepairOffset(data)

		// Unrepaired, a torn journal is refused by the oracle and by the
		// non-repairing entry.
		if torn {
			s2, _ := Open(dir, Options{})
			if _, err := refScanFrom(s2, 0, Selection{}, func(*event.Event) error { return nil }); err == nil {
				t.Fatalf("%s: oracle scanned a torn journal", label)
			}
			var cerr *CorruptError
			if err := s2.ScanFrom(0, Selection{}, func(*event.Event) error { return nil }); !errors.As(err, &cerr) {
				t.Fatalf("%s: ScanFrom over a torn journal = %v, want *CorruptError", label, err)
			}
		}

		s3, _ := Open(dir, Options{})
		if _, err := s3.Tail(int64(rng.Intn(n + 2))); err != nil {
			t.Fatalf("%s: Tail: %v", label, err)
		}
		if fi, err := os.Stat(last); err != nil || fi.Size() != int64(wantEnd) {
			t.Fatalf("%s: Tail left the final segment at %d bytes, oracle truncates to %d", label, fi.Size(), wantEnd)
		}
	}

	// Repaired (or never torn), every entry agrees with the oracle.
	s4, _ := Open(dir, Options{})
	wantCount, err := refScanFrom(s4, 0, Selection{}, func(*event.Event) error { return nil })
	if err != nil {
		t.Fatalf("%s: oracle over the repaired journal: %v", label, err)
	}
	if tail, err := s4.Tail(0); err != nil || tail.Count != wantCount {
		t.Fatalf("%s: Tail(0) = %+v, %v; oracle counts %d (torn %v)", label, tail, err, wantCount, torn)
	}
	for q := 0; q < 6; q++ {
		offset := int64(rng.Intn(n + 3))
		sel := randomSelection(rng, n)
		var want, got, viaTail []uint64
		if _, err := refScanFrom(s4, offset, sel, collectIDs(&want)); err != nil {
			t.Fatal(err)
		}
		if err := s4.ScanFrom(offset, sel, collectIDs(&got)); err != nil {
			t.Fatalf("%s: ScanFrom(%d): %v", label, offset, err)
		}
		if !sameIDs(want, got) {
			t.Fatalf("%s: ScanFrom(%d, %+v) yielded %v, oracle %v", label, offset, sel, got, want)
		}
		if len(sel.Hosts) > 0 || !sel.From.IsZero() || !sel.To.IsZero() {
			continue
		}
		tail, err := s4.Tail(offset)
		if err != nil {
			t.Fatalf("%s: Tail(%d): %v", label, offset, err)
		}
		if tail.Count != wantCount {
			t.Fatalf("%s: Tail(%d) counts %d records, oracle %d", label, offset, tail.Count, wantCount)
		}
		if err := tail.Each(collectIDs(&viaTail)); err != nil || !sameIDs(want, viaTail) {
			t.Fatalf("%s: Tail(%d).Each yielded %v, %v; oracle %v", label, offset, viaTail, err, want)
		}
	}
}

// crcValidGarbage frames a payload the wire codec rejects under a correct
// length and CRC: the one shape on which walker and oracle may part.
func crcValidGarbage() []byte {
	payload := []byte{0xff, 0xff, 0xff}
	rec := binary.AppendUvarint(nil, uint64(len(payload)))
	rec = append(rec, payload...)
	return binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
}

// FuzzSegmentWalk feeds arbitrary segment bytes to the walker and to the
// decode-everything loop. Neither may panic. Where the oracle accepts the
// whole segment the walker yields the same events; where it stops, the
// walker stops at the same record with the same yielded prefix — unless that
// record was only stepped over, in which case the walker may pass it exactly
// when its length and CRC hold and only its payload is bad.
func FuzzSegmentWalk(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	var seg []byte
	for i := 0; i < 6; i++ {
		seg = append(seg, refEncodeEvent(journalEvent(rng, i))...)
	}
	clone := func(b []byte, more ...byte) []byte { return append(append([]byte(nil), b...), more...) }
	f.Add(seg, uint8(0))
	f.Add(seg, uint8(3))
	f.Add(seg[:len(seg)-5], uint8(2))
	f.Add(clone(seg, 0, 0, 0, 0, 0, 0, 0), uint8(1))
	flipped := clone(seg)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped, uint8(0))
	f.Add(flipped, uint8(6))
	mixed := clone(crcValidGarbage(), seg...)
	f.Add(mixed, uint8(0))
	f.Add(mixed, uint8(2))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, skip8 uint8) {
		skip := int64(skip8)
		var want, got []uint64
		refN, refErr := refScanSegment("seg", data, Selection{}, nil, skip, collectIDs(&want))
		w, err := walk("seg", data, skip, collectIDs(&got))
		if refErr == nil {
			if err != nil || w.n != refN || w.end != len(data) || !sameIDs(want, got) {
				t.Fatalf("oracle accepts %d records %v; walk = %+v, %v, %v", refN, want, w, err, got)
			}
			if w.decoded != int64(len(got)) {
				t.Fatalf("walk decoded %d payloads to yield %d", w.decoded, len(got))
			}
			return
		}
		// The oracle stopped at record refN; the walker stopped at record
		// stop (a record whose payload failed to decode was already counted
		// as framed). Up to the earlier of the two they agree.
		stop := int64(-1)
		var cerr *CorruptError
		if errors.As(err, &cerr) {
			stop = w.n
			if cerr.Offset < int64(w.end) { // the last framed record failed to decode
				stop--
			}
		}
		if (stop >= 0 && stop < refN) || !sameIDs(want, got[:min(len(want), len(got))]) {
			t.Fatalf("oracle read %d records %v before %v; walk = %+v, %v, %v", refN, want, refErr, w, err, got)
		}
		if stop == refN {
			return
		}
		// The walker went past it: it must be a record it never had to
		// decode, sound in frame and CRC.
		if refN >= skip {
			t.Fatalf("walk yielded past record %d, which the oracle rejects: %v", refN, refErr)
		}
		at, _ := walk("seg", data, refN, nil)
		rec := data[at.tail:]
		plen, k := binary.Uvarint(rec)
		if k <= 0 || plen == 0 || uint64(len(rec)-k) < plen+4 ||
			crc32.ChecksumIEEE(rec[k:k+int(plen)]) != binary.LittleEndian.Uint32(rec[k+int(plen):]) {
			t.Fatalf("walk stepped over record %d at byte %d, which fails its frame checks (oracle: %v)", refN, at.tail, refErr)
		}
	})
}

// goldenEvents is the fixed input of testdata/journal-v1.seg: every entity
// type as subject and object, empty and non-ASCII strings, a payload past
// 127 bytes (two-byte length prefix), negative and extreme numbers.
func goldenEvents() []*event.Event {
	proc := event.Process("sqlservr.exe", 1680)
	proc.User = "NT AUTHORITY\\SYSTEM"
	proc.CmdLine = "sqlservr.exe -s MSSQLSERVER " + string(bytes.Repeat([]byte("x"), 120))
	evs := []*event.Event{
		{ID: 1, Time: base, AgentID: "db-1", Subject: proc, Op: event.OpStart, Object: event.Process("cmd.exe", 4242)},
		{ID: 2, Time: base.Add(time.Second), AgentID: "db-1", Subject: event.Process("", -1), Op: event.OpWrite, Object: event.File(`C:\données\dump.sql`), Amount: 12.5},
		{ID: 3, Time: base.Add(2 * time.Second), AgentID: "", Subject: event.Process("curl", 7), Op: event.OpConnect, Object: event.NetConn("10.0.0.2", 49000, "172.16.0.129", 443), Amount: -1},
		{ID: 1<<64 - 1, Time: time.Unix(0, -1), AgentID: "web-9", Subject: event.File("/etc/passwd"), Op: event.OpRead, Object: event.NetConn("", 0, "", 0), Amount: 1e300},
	}
	return append(evs, sampleEvents(12)...)
}

func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	return all
}

// TestAppendBytesMatchReference holds the buffer-reusing encoder to the
// allocating one it replaced, record for record, across AppendAll in random
// batch sizes (one-event batches among them) and segment rotation, and to a golden segment written
// by the old encoder. SAQL_UPDATE_GOLDEN=1 rewrites the golden file and is
// only for a deliberate record-format change.
func TestAppendBytesMatchReference(t *testing.T) {
	golden := filepath.Join("testdata", "journal-v1.seg")
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	evs := goldenEvents()
	if err := s.AppendAll(evs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAll(evs[1:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := segmentBytes(t, dir)
	if os.Getenv("SAQL_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes differ from %s (%d vs %d bytes)", golden, len(got), len(want))
	}
	if all, err := s.ReadAll(Selection{}); err != nil || len(all) != len(evs) {
		t.Fatalf("golden segment reads back %d events, %v; want %d", len(all), err, len(evs))
	}

	for _, sd := range conformance.Seeds(t, 17) {
		seed := sd.Value
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s, err := Open(dir, Options{MaxSegmentSize: int64(512 + rng.Intn(8192))})
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for i := 0; i < 600; {
			k := 1 + rng.Intn(64)
			batch := make([]*event.Event, k)
			for j := range batch {
				batch[j] = journalEvent(rng, i+j)
				want = append(want, refEncodeEvent(batch[j])...)
				if rec := record(batch[j]); !bytes.Equal(rec, refEncodeEvent(batch[j])) {
					t.Fatalf("appendRecord differs from the oracle for %+v", batch[j])
				}
			}
			if err := s.AppendAll(batch); err != nil {
				t.Fatal(err)
			}
			i += k
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := segmentBytes(t, dir); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: segments hold %d bytes, oracle encodes %d; first difference at %d",
				seed, len(got), len(want), firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestRestoreReadsJournalOnce follows a restore at 95% of a one-segment
// journal through the store's read and decode counters: Tail reads the
// segment once — to locate the offset, reading the times of the records
// before it for the stream watermark (Tail.Before) without decoding them,
// and after a crash (no sidecar, torn tail record) to repair it — and Each
// decodes exactly the replayed records from the bytes Tail read.
func TestRestoreReadsJournalOnce(t *testing.T) {
	const n, offset = 2000, 1900
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendAll(sampleEvents(n)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	check := func(t *testing.T, dir string) {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tail, err := s.Tail(offset)
		if err != nil {
			t.Fatal(err)
		}
		if tail.Count != n {
			t.Fatalf("Tail counts %d records, want %d", tail.Count, n)
		}
		if s.segReads != 1 || s.decoded != 0 {
			t.Fatalf("Tail read %d segments and decoded %d records, want 1 and 0", s.segReads, s.decoded)
		}
		if wm, ok := tail.Before.Time(); !ok || !wm.Equal(base.Add((offset-1)*time.Second)) {
			t.Fatalf("Tail.Before = %v (%v), want the time of record %d", wm, ok, offset-1)
		}
		var replayed int64
		if err := tail.Each(func(*event.Event) error { replayed++; return nil }); err != nil {
			t.Fatal(err)
		}
		if replayed != n-offset {
			t.Fatalf("replayed %d records, want %d", replayed, n-offset)
		}
		if s.segReads != 1 || s.decoded != replayed {
			t.Fatalf("restore read %d segments and decoded %d records to replay %d, want 1 read and decoded == replayed", s.segReads, s.decoded, replayed)
		}
	}
	t.Run("sealed", func(t *testing.T) { check(t, build(t)) })
	t.Run("crashed", func(t *testing.T) {
		dir := build(t)
		seg := filepath.Join(dir, "events-000001.seg")
		if err := os.Remove(filepath.Join(dir, "events-000001.idx")); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		rec := record(sampleEvents(1)[0])
		if _, err := f.Write(rec[:len(rec)-3]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		check(t, dir)
	})
}
