package storage

// The journal's robustness edges — sidecars that lie or do not parse, an
// fsync racing a rotation — its allocation gate, and the local benchmarks
// for its per-record costs.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"saql/internal/event"
)

// sealedJournal writes n events over several sealed segments and returns
// the directory and the segment names.
func sealedJournal(t *testing.T, n int) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentSize: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAll(sampleEvents(n)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := s.listSegments()
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments = %v, %v; want at least 3", segs, err)
	}
	return dir, segs
}

// TestSidecarCountVerified pins what a sidecar's record count is worth: a
// segment that is walked is held to it, and a disagreement is a typed error
// naming the segment, not a silent shift of every later offset.
func TestSidecarCountVerified(t *testing.T) {
	for _, delta := range []int64{-1, 1} {
		dir, segs := sealedJournal(t, 120)
		s, _ := Open(dir, Options{})
		stale := segs[1]
		meta, _ := s.readMeta(stale)
		meta.Count += delta
		raw, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.metaPath(stale), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var cerr *CorruptError
		err = s.ScanFrom(0, Selection{}, func(*event.Event) error { return nil })
		if !errors.As(err, &cerr) || cerr.Segment != stale {
			t.Fatalf("count %+d: ScanFrom = %v, want *CorruptError naming %s", delta, err, stale)
		}
		tail, err := s.Tail(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tail.Each(func(*event.Event) error { return nil }); !errors.As(err, &cerr) || cerr.Segment != stale {
			t.Fatalf("count %+d: Tail.Each = %v, want *CorruptError naming %s", delta, err, stale)
		}
	}
}

// TestUnparsableSidecarFallsBackToWalk: a sidecar that exists but does not
// parse (a crash mid-write, a bad edit) costs only the fast path — the
// segment is counted and read by walking it — and still marks the segment as
// sealed: a frame failure inside it is corruption, and no repair truncates it.
func TestUnparsableSidecarFallsBackToWalk(t *testing.T) {
	for name, content := range map[string]string{"empty": "", "truncated": `{"min_time":15`, "garbage": "\x00\xffnot json", "negative": `{"count":-4}`} {
		t.Run(name, func(t *testing.T) {
			const n = 120
			dir, segs := sealedJournal(t, n)
			s, _ := Open(dir, Options{})
			last := segs[len(segs)-1]
			if err := os.WriteFile(s.metaPath(last), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			tail, err := s.Tail(n - 5)
			if err != nil || tail.Count != n {
				t.Fatalf("Tail(%d) = %+v, %v; want %d records", n-5, tail, err, n)
			}
			read := 0
			if err := tail.Each(func(*event.Event) error { read++; return nil }); err != nil || read != 5 {
				t.Fatalf("Tail(%d).Each = %d events, %v; want 5", n-5, read, err)
			}

			// Cut the segment's last record short. Were it unsealed that would
			// be a torn tail to trim; sealed, it must be reported and kept.
			path := filepath.Join(dir, last)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
			var cerr *CorruptError
			if _, err := s.Tail(0); !errors.As(err, &cerr) || cerr.Segment != last {
				t.Fatalf("Tail = %v, want *CorruptError naming %s", err, last)
			}
			if after, err := os.Stat(path); err != nil || after.Size() != fi.Size()-3 {
				t.Fatalf("a sealed segment was truncated to %d bytes", after.Size())
			}
		})
	}
}

// TestCRCValidGarbageIsCorruptionNotTear: a record whose frame holds but
// whose payload does not decode was never written by AppendAll. Tail leaves
// it alone, the count includes it, and it surfaces as a typed error only
// when a read reaches it — a seek past it never decodes it.
func TestCRCValidGarbageIsCorruptionNotTear(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	if err := s.AppendAll(sampleEvents(4)); err != nil {
		t.Fatal(err)
	}
	f := s.active.Load()
	if _, err := f.Write(crcValidGarbage()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(record(sampleEvents(1)[0])); err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	f.Close() // the crash: no seal

	s2, _ := Open(dir, Options{})
	tail, err := s2.Tail(5)
	if err != nil || tail.Count != 6 {
		t.Fatalf("Tail(5) = %+v, %v; want 6 records", tail, err)
	}
	n := 0
	if err := tail.Each(func(*event.Event) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("the record past the garbage: yielded %d, %v", n, err)
	}
	if after, err := os.Stat(filepath.Join(dir, "events-000001.seg")); err != nil || after.Size() != fi.Size() {
		t.Fatalf("Tail trimmed the segment to %d bytes, want all %d kept", after.Size(), fi.Size())
	}
	var cerr *CorruptError
	if err := s2.ScanFrom(0, Selection{}, func(*event.Event) error { return nil }); !errors.As(err, &cerr) || cerr.Reason == "crc mismatch" {
		t.Fatalf("ScanFrom(0) = %v, want the payload's decode failure as a *CorruptError", err)
	}
}

// TestSyncConcurrentWithAppendAcrossRotation runs Sync from a second
// goroutine while AppendAll rotates segments as fast as it can: the fsync
// may meet a file the rotation has just closed, which that rotation synced,
// so Sync must report success and the race detector must stay quiet.
func TestSyncConcurrentWithAppendAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	evs := sampleEvents(64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Sync(); err != nil {
				t.Errorf("Sync beside AppendAll: %v", err)
				return
			}
		}
	}()
	const rounds = 60
	for i := 0; i < rounds; i++ {
		if err := s.AppendAll(evs); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if tail, err := s.Tail(0); err != nil || tail.Count != rounds*int64(len(evs)) {
		t.Fatalf("Tail(0) = %+v, %v; want %d records", tail, err, rounds*len(evs))
	}
}

// TestJournalAppendAllocsGate: steady-state journaling allocates nothing per
// event. One AppendAll of 512 events is one file write out of the store's
// own buffers; the gate leaves two allocations per batch of slack for the
// runtime underneath the write, none of which may scale with the batch. A
// one-event AppendAll — serial Process's journal write — allocates nothing.
func TestJournalAppendAllocsGate(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	evs := sampleEvents(512)
	if err := s.AppendAll(evs); err != nil { // warm-up: buffers, segment, host set
		t.Fatal(err)
	}
	perBatch := testing.AllocsPerRun(20, func() {
		if err := s.AppendAll(evs); err != nil {
			t.Fatal(err)
		}
	})
	perAppend := testing.AllocsPerRun(200, func() {
		if err := s.AppendAll(evs[:1]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("journal allocations: %.1f per 512-event AppendAll, %.1f per one-event AppendAll", perBatch, perAppend)
	if perBatch > 2 {
		t.Fatalf("AppendAll allocates %.1f per 512-event batch (%.3f/event), gate is 2 per batch", perBatch, perBatch/512)
	}
	if perAppend != 0 {
		t.Fatalf("a one-event AppendAll allocates %.1f, gate is 0", perAppend)
	}
}

// BenchmarkJournalAppend is the journaling hot path: AppendAll in the
// engine's 512-event submissions, reported per event.
func BenchmarkJournalAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	evs := sampleEvents(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AppendAll(evs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

// BenchmarkJournalSeek is a restore's read: one sealed segment of 101k
// records, skip 100k, decode and yield 1k.
func BenchmarkJournalSeek(b *testing.B) {
	const skip, yield = 100_000, 1_000
	dir := b.TempDir()
	s, err := Open(dir, Options{MaxSegmentSize: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	evs := sampleEvents(1000)
	for i := 0; i < (skip+yield)/len(evs); i++ {
		if err := s.AppendAll(evs); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tail, err := s.Tail(skip)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := tail.Each(func(*event.Event) error { n++; return nil }); err != nil || n != yield {
			b.Fatalf("yielded %d, %v", n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(skip+yield)), "ns/record")
}

// TestTailBefore: Tail.Before is the latest event time among the records
// before the offset, wherever they sit — sealed segments answer from their
// sidecar, the segment holding the offset and an unsealed one from their
// records — on a journal whose times go back and forth.
func TestTailBefore(t *testing.T) {
	evs := sampleEvents(60)
	for i, ev := range evs {
		if i%4 == 3 {
			ev.Time = ev.Time.Add(-30 * time.Second) // late
		}
	}
	for _, crashed := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Open(dir, Options{MaxSegmentSize: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendAll(evs); err != nil {
			t.Fatal(err)
		}
		if !crashed {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for _, offset := range []int{0, 1, 7, 23, 30, 59, 60, 61} {
			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			tail, err := s2.Tail(int64(offset))
			if err != nil {
				t.Fatal(err)
			}
			var want event.Watermark
			for _, ev := range evs[:min(offset, len(evs))] {
				want.Through(ev.Time)
			}
			got, gotOK := tail.Before.Time()
			if wantT, wantOK := want.Time(); gotOK != wantOK || !got.Equal(wantT) {
				t.Errorf("crashed %v, offset %d: Before %v (%v), want %v (%v)", crashed, offset, got, gotOK, wantT, wantOK)
			}
			n := 0
			if err := tail.Each(func(ev *event.Event) error {
				if ev.ID != uint64(offset+n+1) {
					t.Fatalf("offset %d: record %d has ID %d", offset, n, ev.ID)
				}
				n++
				return nil
			}); err != nil || n != max(len(evs)-offset, 0) {
				t.Fatalf("crashed %v, offset %d: Each yielded %d, %v", crashed, offset, n, err)
			}
		}
	}
}
