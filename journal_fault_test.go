package saql

// Recovery with the disk broken by hand: the journal and checkpoint files a
// crashed run leaves behind are edited the way real faults would (a torn
// append, a zero-filled tail, a flipped bit, a sidecar the crash cut short
// or someone rewrote, a stray temp file, missing segments) and each case
// must end in a typed error or in a recovery whose alerts equal the
// uninterrupted run's — never a panic, an open journal file left behind, a
// gap or a double alert.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"saql/internal/snapshot"
)

// crashedRun journals events[:kill] through a serial engine into small
// segments, checkpointing after events[:cut], and abandons the engine the
// way a crash does: nothing sealed, the last segment without a sidecar. It
// returns the directory and the alerts raised up to the checkpoint.
func crashedRun(t *testing.T, events []*Event, cut, kill int) (string, []*Alert) {
	t.Helper()
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{MaxSegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WithJournal(store))
	for _, q := range concurrencyQueries {
		if _, err := eng.Register(q.name, q.src); err != nil {
			t.Fatal(err)
		}
	}
	var kept []*Alert
	for _, ev := range events[:cut] {
		kept = append(kept, eng.Process(ev)...)
	}
	if info, err := eng.Checkpoint(dir); err != nil || info.Offset != int64(cut) {
		t.Fatalf("checkpoint = %+v, %v; want offset %d", info, err, cut)
	}
	for _, ev := range events[cut:kill] {
		eng.Process(ev)
	}
	return dir, kept
}

type journalSegment struct {
	path, sidecar string
	start, count  int64 // global offset of the first record; sidecar count
}

// journalSegments lists a directory's segment files with the record counts
// their sidecars claim (-1 without one).
func journalSegments(t *testing.T, dir string) []journalSegment {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "events-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var segs []journalSegment
	var pos int64
	for _, p := range paths {
		seg := journalSegment{path: p, sidecar: strings.TrimSuffix(p, ".seg") + ".idx", start: pos, count: -1}
		if raw, err := os.ReadFile(seg.sidecar); err == nil {
			var meta struct {
				Count int64 `json:"count"`
			}
			if err := json.Unmarshal(raw, &meta); err != nil {
				t.Fatal(err)
			}
			seg.count = meta.Count
			pos += meta.Count
		}
		segs = append(segs, seg)
	}
	return segs
}

func flipByte(t *testing.T, path string, at int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[at] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// openUnder counts this process's open files inside dir (Linux only; 0
// elsewhere, which makes the check vacuous rather than wrong).
func openUnder(dir string) int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

func TestRestoreDiskFaults(t *testing.T) {
	events := concurrencyWorkload(60, 20)
	cut, kill := len(events)/3, 2*len(events)/3

	ref := New()
	for _, q := range concurrencyQueries {
		if _, err := ref.Register(q.name, q.src); err != nil {
			t.Fatal(err)
		}
	}
	var want []*Alert
	for _, ev := range events {
		want = append(want, ref.Process(ev)...)
	}
	want = append(want, ref.Flush()...)

	// walked is the sealed segment holding the snapshot's offset, with at
	// least one record on each side of it; past is a sealed segment wholly
	// after it; last is the unsealed final segment.
	pick := func(t *testing.T, dir string) (walked, past, last journalSegment) {
		segs := journalSegments(t, dir)
		last = segs[len(segs)-1]
		if last.count != -1 || len(segs) < 4 {
			t.Fatalf("journal shape: %d segments, final sidecar count %d; want several and an unsealed last", len(segs), last.count)
		}
		for i, seg := range segs[:len(segs)-1] {
			if seg.start < int64(cut) && int64(cut) < seg.start+seg.count-1 {
				return seg, segs[i+1], last
			}
		}
		t.Fatalf("no sealed segment strictly holds offset %d: %+v", cut, segs)
		return
	}

	journalCorrupt := func(t *testing.T, err error) {
		var jerr *JournalCorruptError
		if !errors.As(err, &jerr) || jerr.Segment == "" {
			t.Fatalf("Restore = %v, want *JournalCorruptError naming a segment", err)
		}
	}
	snapshotCorrupt := func(t *testing.T, err error) {
		var serr *SnapshotCorruptError
		if !errors.As(err, &serr) {
			t.Fatalf("Restore = %v, want *SnapshotCorruptError", err)
		}
	}

	cases := []struct {
		name    string
		fault   func(t *testing.T, dir string)
		wantErr func(t *testing.T, err error) // nil: recovery must be alert-identical
		lost    bool                          // the fault destroys journaled records past the checkpoint
	}{
		{name: "clean crash", fault: func(*testing.T, string) {}},
		{name: "torn final record", lost: true, fault: func(t *testing.T, dir string) {
			_, _, last := pick(t, dir)
			fi, err := os.Stat(last.path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(last.path, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "zero-filled tail", fault: func(t *testing.T, dir string) {
			_, _, last := pick(t, dir)
			f, err := os.OpenFile(last.path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(make([]byte, 300)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "zero-length last segment", lost: true, fault: func(t *testing.T, dir string) {
			_, _, last := pick(t, dir)
			if err := os.Truncate(last.path, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "flipped bit in the unsealed segment", lost: true, fault: func(t *testing.T, dir string) {
			_, _, last := pick(t, dir)
			fi, err := os.Stat(last.path)
			if err != nil {
				t.Fatal(err)
			}
			flipByte(t, last.path, fi.Size()/2)
		}},
		{name: "flipped bit in a sealed segment past the offset", wantErr: journalCorrupt, fault: func(t *testing.T, dir string) {
			_, past, _ := pick(t, dir)
			flipByte(t, past.path, 40)
		}},
		{name: "flipped bit before the offset in the walked segment", wantErr: journalCorrupt, fault: func(t *testing.T, dir string) {
			walked, _, _ := pick(t, dir)
			flipByte(t, walked.path, 5) // inside the segment's first record
		}},
		{name: "truncated sidecar", fault: func(t *testing.T, dir string) {
			_, past, _ := pick(t, dir)
			if err := os.Truncate(past.sidecar, 9); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "garbage sidecar", fault: func(t *testing.T, dir string) {
			walked, _, _ := pick(t, dir)
			if err := os.WriteFile(walked.sidecar, []byte("\x00\x01 not an index"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "stale-count sidecar", wantErr: journalCorrupt, fault: func(t *testing.T, dir string) {
			_, past, _ := pick(t, dir)
			raw, err := os.ReadFile(past.sidecar)
			if err != nil {
				t.Fatal(err)
			}
			var meta map[string]any
			if err := json.Unmarshal(raw, &meta); err != nil {
				t.Fatal(err)
			}
			meta["count"] = past.count - 2
			if raw, err = json.Marshal(meta); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(past.sidecar, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "leftover checkpoint temp file", fault: func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, snapshot.FileName+".tmp"), []byte("SAQLCKPT half a snapsh"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "journal shorter than the snapshot offset", wantErr: snapshotCorrupt, fault: func(t *testing.T, dir string) {
			walked, _, _ := pick(t, dir)
			for _, seg := range journalSegments(t, dir) {
				if seg.start >= walked.start {
					os.Remove(seg.path)
					os.Remove(seg.sidecar)
				}
			}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, kept := crashedRun(t, events, cut, kill)
			tc.fault(t, dir)
			// The abandoned engine still holds its final segment open until a
			// finalizer gets to it, so the leak check is one-sided: Restore
			// and Close may not add to the count.
			before := openUnder(dir)

			var mu sync.Mutex
			var restored []*Alert
			eng, info, err := Restore(dir, WithRestoreEngineOptions(
				WithShards(2),
				WithAlertHandler(func(a *Alert) {
					mu.Lock()
					restored = append(restored, a)
					mu.Unlock()
				}),
			))
			if tc.wantErr != nil {
				if err == nil {
					_ = eng.Close()
					t.Fatalf("Restore recovered %+v from a fault that must be reported", info)
				}
				tc.wantErr(t, err)
				if after := openUnder(dir); after > before {
					t.Fatalf("failed Restore left %d files open under the directory (was %d)", after, before)
				}
				return
			}
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			// The producer resumes from the journal's durable head: whatever
			// the fault destroyed past the checkpoint is re-sent, nothing else.
			resume := int(info.Offset + info.Replayed)
			if info.Offset != int64(cut) || resume > kill || (resume == kill) == tc.lost {
				t.Fatalf("restored at offset %d, replayed %d (head %d of %d journaled, fault loses records: %v)",
					info.Offset, info.Replayed, resume, kill, tc.lost)
			}
			if err := eng.SubmitBatch(events[resume:]); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Checkpoint(dir); err != nil {
				t.Fatalf("checkpoint after recovery: %v", err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			got := append(append([]*Alert{}, kept...), restored...)
			mu.Unlock()
			diffAlertSets(t, tc.name, sortedIdentities(want), sortedIdentities(got))
			if after := openUnder(dir); after > before {
				t.Fatalf("closed engine left %d files open under the directory (was %d)", after, before)
			}
		})
	}
}

// TestOpenDirectoryStates enters a durable directory in each state a run
// can leave it in — never used, a journal with no snapshot whose last append
// was torn (the run died before its first checkpoint), a snapshot with a
// journaled tail past it (also torn) — through Open, at 1 and 4 shards and
// unstarted, and finishes the stream: in every case the alerts equal the
// uninterrupted serial run's, and offsets stay journal positions. Queries a
// snapshot does not bring are registered between Open(WithoutReplay) and
// ReplayJournal; with a snapshot, Open replays the tail itself.
func TestOpenDirectoryStates(t *testing.T) {
	events := concurrencyWorkload(48, 20)
	cut, kill := len(events)/3, 2*len(events)/3

	ref := New()
	for _, q := range concurrencyQueries {
		if _, err := ref.Register(q.name, q.src); err != nil {
			t.Fatal(err)
		}
	}
	var want []*Alert
	for _, ev := range events {
		want = append(want, ref.Process(ev)...)
	}
	want = append(want, ref.Flush()...)

	// tornRun is crashedRun with its final append cut three bytes short, so
	// the journal holds kill-1 whole records.
	tornRun := func(t *testing.T) (string, []*Alert) {
		dir, kept := crashedRun(t, events, cut, kill)
		segs := journalSegments(t, dir)
		last := segs[len(segs)-1].path
		fi, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(last, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
		return dir, kept
	}
	states := []struct {
		name string
		// prepare returns the directory, the alerts its checkpoint already
		// accounts for, the offset Open must report and the records the
		// journal holds.
		prepare func(t *testing.T) (dir string, kept []*Alert, offset, journaled int)
	}{
		{"empty", func(t *testing.T) (string, []*Alert, int, int) { return t.TempDir(), nil, 0, 0 }},
		{"orphaned journal, torn tail", func(t *testing.T) (string, []*Alert, int, int) {
			dir, _ := tornRun(t)
			if err := os.Remove(snapshot.Path(dir)); err != nil {
				t.Fatal(err)
			}
			return dir, nil, 0, kill - 1
		}},
		{"snapshot and torn tail", func(t *testing.T) (string, []*Alert, int, int) {
			dir, kept := tornRun(t)
			return dir, kept, cut, kill - 1
		}},
	}
	modes := []struct {
		name string
		opts []RestoreOption
	}{
		{"1 shard", []RestoreOption{WithRestoreEngineOptions(WithShards(1))}},
		{"4 shards", []RestoreOption{WithRestoreEngineOptions(WithShards(4))}},
		{"unstarted", []RestoreOption{WithoutStart()}},
	}

	for _, st := range states {
		for _, mode := range modes {
			t.Run(st.name+"/"+mode.name, func(t *testing.T) {
				dir, kept, offset, journaled := st.prepare(t)
				var mu sync.Mutex
				got := append([]*Alert{}, kept...)
				opts := append([]RestoreOption{WithRestoreEngineOptions(WithAlertHandler(func(a *Alert) {
					mu.Lock()
					got = append(got, a)
					mu.Unlock()
				}))}, mode.opts...)
				hasSnapshot := offset > 0
				if !hasSnapshot {
					opts = append(opts, WithoutReplay())
				}
				eng, info, err := Open(dir, opts...)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				if info.Offset != int64(offset) || info.TakenAt.IsZero() == hasSnapshot {
					t.Fatalf("Open = %+v, want offset %d, snapshot %v", info, offset, hasSnapshot)
				}
				replayed := info.Replayed
				if !hasSnapshot {
					for _, q := range concurrencyQueries {
						if _, err := eng.Register(q.name, q.src); err != nil {
							t.Fatal(err)
						}
					}
					if replayed, err = eng.ReplayJournal(info.Offset); err != nil {
						t.Fatal(err)
					}
				}
				if replayed != int64(journaled-offset) {
					t.Fatalf("replayed %d journaled events, want the %d whole records past offset %d", replayed, journaled-offset, offset)
				}
				if eng.Shards() > 0 {
					err = eng.SubmitBatch(events[journaled:])
				} else {
					for _, ev := range events[journaled:] {
						eng.Process(ev)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				if info, err := eng.Checkpoint(dir); err != nil || info.Offset != int64(len(events)) {
					t.Fatalf("checkpoint = %+v, %v; want offset %d", info, err, len(events))
				}
				if eng.Shards() == 0 {
					eng.Flush() // Close flushes a started engine
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				defer mu.Unlock()
				diffAlertSets(t, st.name, sortedIdentities(want), sortedIdentities(got))
			})
		}
	}
}
