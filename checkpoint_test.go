package saql

// Unit tests for the checkpoint/restore subsystem: serial and sharded
// round trips, registry fidelity (labels, pause flags, compile options),
// journal offset accounting, and the typed failure modes (no checkpoint,
// version mismatch, corruption). The randomized recovery-equivalence hammer
// lives in conformance_test.go.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
	"weak"

	"saql/internal/engine"
	"saql/internal/snapshot"
)

// alertIdentity is the comparison key of every equivalence test: everything
// but the detection time (wall clock) and delivery order. Event times compare
// by instant (UnixNano), not rendered zone: replayed events decoded from the
// journal carry the same instants as the originals but in the local zone.
func alertIdentity(a *Alert) string {
	return strconv.FormatInt(a.EventTime.UnixNano(), 10) + "|" + alertCountKey(a)
}

func sortedIdentities(alerts []*Alert) []string {
	out := make([]string, 0, len(alerts))
	for _, a := range alerts {
		out = append(out, alertIdentity(a))
	}
	sort.Strings(out)
	return out
}

func diffAlertSets(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: alert count: got %d, want %d", label, len(got), len(want))
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: alert sets diverge at #%d:\n  got:  %s\n  want: %s", label, i, got[i], want[i])
		}
	}
}

// TestCheckpointRestoreSerialRoundTrip drives the serial engine with a
// durable journal, checkpoints at the stream midpoint, "crashes" (abandons
// the engine unflushed), restores without replay (the journal holds nothing
// past the barrier), and finishes the stream on the restored engine. The
// combined alert set must equal an uninterrupted run's.
func TestCheckpointRestoreSerialRoundTrip(t *testing.T) {
	dir := t.TempDir()
	events := concurrencyWorkload(40, 20)

	// Uninterrupted reference.
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
	if len(want) == 0 {
		t.Fatal("reference run produced no alerts")
	}

	// Run 1: durable engine up to the cut, then checkpoint, then crash.
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(WithJournal(store))
	for _, q := range concurrencyQueries {
		if _, err := e1.Register(q.name, q.src); err != nil {
			t.Fatal(err)
		}
	}
	cut := len(events) / 2
	var got []*Alert
	for _, ev := range events[:cut] {
		got = append(got, e1.Process(ev)...)
	}
	nPre := len(got) // alerts already raised at the barrier
	info, err := e1.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Offset != int64(cut) {
		t.Errorf("checkpoint offset = %d, want %d", info.Offset, cut)
	}
	if info.Queries != len(concurrencyQueries) {
		t.Errorf("checkpoint queries = %d, want %d", info.Queries, len(concurrencyQueries))
	}
	// Crash: no Close, no Flush — open windows die with the process.

	// Run 2: restore and finish the stream.
	e2, rinfo, err := Restore(dir, WithoutStart())
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Offset != int64(cut) || rinfo.Replayed != 0 {
		t.Errorf("restore info = offset %d replayed %d, want offset %d replayed 0", rinfo.Offset, rinfo.Replayed, cut)
	}
	if rinfo.Queries != len(concurrencyQueries) {
		t.Errorf("restore queries = %d, want %d", rinfo.Queries, len(concurrencyQueries))
	}
	for _, ev := range events[cut:] {
		got = append(got, e2.Process(ev)...)
	}
	got = append(got, e2.Flush()...)

	diffAlertSets(t, "serial round trip", sortedIdentities(want), sortedIdentities(got))

	// The journal now holds the full stream — run 1's prefix plus run 2's
	// tail — in one offset coordinate space.
	if tail, err := store.Tail(0); err != nil || tail.Count != int64(len(events)) {
		t.Errorf("journal = %+v, %v; want %d records", tail, err, len(events))
	}

	// Restore the same mid-stream snapshot a second time, now onto 8
	// shards with the full journal present: the single serial state blob
	// re-splits across the shards by group ownership, replay covers the
	// whole tail, and the output must equal the reference's post-barrier
	// alerts exactly. (Serial alert delivery is synchronous, so the
	// reference's first nPre alerts are the pre-barrier ones.)
	var mu sync.Mutex
	var wide []*Alert
	e3, rinfo3, err := Restore(dir, WithRestoreEngineOptions(
		WithShards(8),
		WithAlertHandler(func(a *Alert) {
			mu.Lock()
			wide = append(wide, a)
			mu.Unlock()
		}),
	))
	if err != nil {
		t.Fatal(err)
	}
	if rinfo3.Replayed != int64(len(events)-cut) {
		t.Errorf("second restore replayed %d, want %d", rinfo3.Replayed, len(events)-cut)
	}
	if err := e3.Close(); err != nil {
		t.Fatal(err)
	}
	diffAlertSets(t, "serial snapshot onto 8 shards", sortedIdentities(want[nPre:]), sortedIdentities(wide))
}

// TestCheckpointRestoreShardedReplay kills a sharded engine after the
// checkpoint (events keep flowing and alerts keep firing past the barrier),
// then restores onto a different shard count with automatic journal-tail
// replay. Pre-checkpoint alerts plus the restored engine's output must
// equal an uninterrupted run: nothing lost, nothing duplicated.
func TestCheckpointRestoreShardedReplay(t *testing.T) {
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

	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var preCheckpoint, discard []*Alert
	sink := &preCheckpoint
	e1 := New(WithShards(4), WithJournal(store), WithAlertHandler(func(a *Alert) {
		mu.Lock()
		*sink = append(*sink, a)
		mu.Unlock()
	}))
	for _, q := range concurrencyQueries {
		if _, err := e1.Register(q.name, q.src); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e1.SubmitBatch(events[:cut]); err != nil {
		t.Fatal(err)
	}
	info, err := e1.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Offset != int64(cut) {
		t.Errorf("checkpoint offset = %d, want %d", info.Offset, cut)
	}
	// The checkpoint barrier has passed: everything the handler saw so far
	// is pre-barrier output; everything later is regenerated by replay.
	mu.Lock()
	sink = &discard
	mu.Unlock()
	if err := e1.SubmitBatch(events[cut:kill]); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil { // "crash": post-checkpoint output is discarded
		t.Fatal(err)
	}

	// Restore on a different shard count; replay covers (cut, kill], then
	// the live feed delivers the rest.
	var restored []*Alert
	e2, rinfo, err := Restore(dir, WithRestoreEngineOptions(
		WithShards(2),
		WithAlertHandler(func(a *Alert) {
			mu.Lock()
			restored = append(restored, a)
			mu.Unlock()
		}),
	))
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Replayed != int64(kill-cut) {
		t.Errorf("replayed = %d, want %d", rinfo.Replayed, kill-cut)
	}
	if err := e2.SubmitBatch(events[kill:]); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	got := append(append([]*Alert{}, preCheckpoint...), restored...)
	diffAlertSets(t, "sharded replay", sortedIdentities(want), sortedIdentities(got))

	// The journal holds run 1's prefix plus run 2's live tail (replayed
	// events are read back, never re-appended): one coordinate space.
	if tail, err := store.Tail(0); err != nil || tail.Count != int64(len(events)) {
		t.Errorf("journal = %+v, %v; want %d records", tail, err, len(events))
	}
}

// TestRestoreRegistryFidelity checks the registry round trip: labels,
// pause flags, managed flags, and handle identity.
func TestRestoreRegistryFidelity(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WithJournal(store))
	h, err := eng.Register("labelled", `proc p write ip i as e
alert e.amount > 10
return p, e.amount`, WithLabel("team", "secops"), WithLabel("severity", "high"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Pause(); err != nil {
		t.Fatal(err)
	}
	set := NewQuerySet()
	if err := set.Add("managed-one", `proc p read file f return p, f`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	e2, _, err := Restore(dir, WithoutStart())
	if err != nil {
		t.Fatal(err)
	}
	h2, ok := e2.Query("labelled")
	if !ok {
		t.Fatal("labelled query not restored")
	}
	if labels := h2.Labels(); labels["team"] != "secops" || labels["severity"] != "high" {
		t.Errorf("labels not restored: %v", labels)
	}
	if !h2.Paused() {
		t.Error("pause flag not restored")
	}
	if cur, ok := e2.Query("labelled"); !ok || cur != h2 {
		t.Error("handle not pointer-stable across lookups")
	}
	// The restored managed flag must let Apply retire the query.
	rep, err := e2.Apply(context.Background(), NewQuerySet())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != "managed-one" {
		t.Errorf("managed flag not restored: Apply removed %v, want [managed-one]", rep.Removed)
	}
	if _, ok := e2.Query("labelled"); !ok {
		t.Error("unmanaged query retired by Apply")
	}
}

// TestRestoreErrorsTyped pins the typed failure modes: missing, version
// mismatch (older format), and corruption are all distinct, and none of
// them silently yields an engine.
func TestRestoreErrorsTyped(t *testing.T) {
	t.Run("no-checkpoint", func(t *testing.T) {
		_, _, err := Restore(t.TempDir())
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("err = %v, want ErrNoCheckpoint", err)
		}
	})

	t.Run("older-version", func(t *testing.T) {
		dir := t.TempDir()
		// A version-1 header: the pre-release format this build cannot
		// migrate. Restore must fail with the typed version error — never
		// guess at the layout.
		file := append([]byte(snapshot.Magic), 1, 0)
		file = append(file, 0) // empty payload
		file = binary.LittleEndian.AppendUint32(file, 0)
		if err := os.WriteFile(filepath.Join(dir, snapshot.FileName), file, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Restore(dir)
		var verr *SnapshotVersionError
		if !errors.As(err, &verr) {
			t.Fatalf("err = %v, want *SnapshotVersionError", err)
		}
		if verr.Got != 1 || verr.Supported != snapshot.Version {
			t.Errorf("version error = got %d supported %d, want got 1 supported %d", verr.Got, verr.Supported, snapshot.Version)
		}
	})

	t.Run("newer-version", func(t *testing.T) {
		dir := t.TempDir()
		file := append([]byte(snapshot.Magic), byte(snapshot.Version+1), 0)
		if err := os.WriteFile(filepath.Join(dir, snapshot.FileName), file, 0o644); err != nil {
			t.Fatal(err)
		}
		var verr *SnapshotVersionError
		if _, _, err := Restore(dir); !errors.As(err, &verr) {
			t.Errorf("err = %v, want *SnapshotVersionError", err)
		}
	})

	t.Run("corrupt-crc", func(t *testing.T) {
		dir := t.TempDir()
		store, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng := New(WithJournal(store))
		if _, err := eng.Register("q", `proc p read file f return p`); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, snapshot.FileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var cerr *SnapshotCorruptError
		if _, _, err := Restore(dir); !errors.As(err, &cerr) {
			t.Errorf("err = %v, want *SnapshotCorruptError", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		dir := t.TempDir()
		store, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng := New(WithJournal(store))
		if _, err := eng.Register("q", `proc p read file f return p`); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, snapshot.FileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		var cerr *SnapshotCorruptError
		if _, _, err := Restore(dir); !errors.As(err, &cerr) {
			t.Errorf("err = %v, want *SnapshotCorruptError", err)
		}
	})
}

// TestCheckpointMultievent covers partial-match recovery: a three-step
// kill chain split across the checkpoint must still complete after restore.
func TestCheckpointMultievent(t *testing.T) {
	src := `proc p1["%mysqldump"] write file f1["%dump.sql"] as e1
proc p2["%curl"] read file f1 as e2
proc p2 connect ip i1[dstip="172.16.0.129"] as e3
with e1 -> e2 -> e3
return distinct p1, f1, p2, i1`

	at := func(s int) time.Time { return demoStart.Add(time.Duration(s) * time.Second) }
	chain := []*Event{
		{Time: at(0), AgentID: "db-1", Subject: Process("mysqldump", 100), Op: OpWrite, Object: File("/tmp/dump.sql"), Amount: 4096},
		{Time: at(5), AgentID: "db-1", Subject: Process("curl", 200), Op: OpRead, Object: File("/tmp/dump.sql"), Amount: 4096},
		{Time: at(9), AgentID: "db-1", Subject: Process("curl", 200), Op: OpConnect, Object: NetConn("10.0.0.5", 40000, "172.16.0.129", 443), Amount: 4096},
	}

	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(WithJournal(store))
	if _, err := e1.Register("exfil", src); err != nil {
		t.Fatal(err)
	}
	// First two steps land before the crash; the partial match must ride
	// the checkpoint.
	if alerts := e1.Process(chain[0]); len(alerts) != 0 {
		t.Fatalf("premature alert: %v", alerts)
	}
	if alerts := e1.Process(chain[1]); len(alerts) != 0 {
		t.Fatalf("premature alert: %v", alerts)
	}
	if _, err := e1.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	e2, _, err := Restore(dir, WithoutStart())
	if err != nil {
		t.Fatal(err)
	}
	alerts := e2.Process(chain[2])
	if len(alerts) != 1 {
		t.Fatalf("restored engine raised %d alerts on the completing event, want 1", len(alerts))
	}
	if alerts[0].Query != "exfil" {
		t.Errorf("alert query = %q", alerts[0].Query)
	}
	// And exactly once: the distinct table survived too.
	if again := e2.Process(chain[2]); len(again) != 0 {
		t.Errorf("completing event re-fired %d alerts after restore", len(again))
	}
}

// TestJournalReuseAfterCheckpointlessCrash pins the offset coordinate
// space when a run dies before writing any checkpoint: the next engine
// attached to the same journal directory must continue counting from the
// journal's existing record count, never from zero — otherwise a later
// restore would replay the dead run's stale events into fresh state.
func TestJournalReuseAfterCheckpointlessCrash(t *testing.T) {
	dir := t.TempDir()
	events := concurrencyWorkload(12, 10)

	// Run 1 journals 40 events and crashes without ever checkpointing.
	store1, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(WithJournal(store1))
	if _, err := e1.Register("q", concurrencyQueries[0].src); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[:40] {
		e1.Process(ev)
	}
	// Crash: no checkpoint, no Close.

	// Run 2 starts fresh against the same directory (no snapshot exists)
	// and processes 20 more events.
	store2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(WithJournal(store2))
	if _, err := e2.Register("q", concurrencyQueries[0].src); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[40:60] {
		e2.Process(ev)
	}
	info, err := e2.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint must index journal coordinates: 40 stale + 20 live.
	if info.Offset != 60 {
		t.Fatalf("checkpoint offset = %d, want 60 (40 pre-existing + 20 processed)", info.Offset)
	}

	// A restore therefore replays nothing — run 1's stale records are
	// before the offset and never fold into run 2's snapshot state.
	e3, rinfo, err := Restore(dir, WithoutStart())
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Replayed != 0 {
		t.Fatalf("replayed %d stale events, want 0", rinfo.Replayed)
	}
	if err := e3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryStateReencodeIdempotent drives every conformance-corpus query
// over the demo stream, snapshots its state, restores it into a freshly
// compiled copy, and re-encodes: the blobs must be byte-identical. This is
// the strongest cheap property the state codec has — encode∘restore is the
// identity on every stateful layer (aggregators, windows, histories,
// invariants, partial matches, distinct tables) — and it runs over real
// rule/stateful/time-series/invariant/outlier state, not synthetic structs.
func TestQueryStateReencodeIdempotent(t *testing.T) {
	events, _ := buildDemoStream(t, 3*time.Minute, time.Minute)
	for _, c := range conformanceCorpus {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			q, err := compileQuery(c.Name, c.Src)
			if err != nil {
				t.Fatal(err)
			}
			s := soloScheduler(t, q, nil)
			for _, ev := range events {
				s.Process(ev)
			}
			states, _, err := s.CaptureStates()
			if err != nil {
				t.Fatal(err)
			}
			blob := states[c.Name]
			fresh, err := compileQuery(c.Name, c.Src)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.RestoreState(blob, nil, true); err != nil {
				t.Fatal(err)
			}
			again, err := fresh.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if string(blob) != string(again) {
				t.Fatalf("re-encoded state differs: %d vs %d bytes", len(blob), len(again))
			}
			// And the restored query must keep processing: feed the stream
			// once more and require no panics and no decode-induced errors.
			reporter := engine.NewErrorReporter(16, nil)
			rs := soloScheduler(t, fresh, reporter)
			for _, ev := range events {
				rs.Process(ev)
			}
			rs.Flush()
			if n := reporter.Total(); n > 0 {
				t.Errorf("%d runtime errors on the restored query", n)
			}
		})
	}
}

// TestCheckpointWhileStreaming checkpoints concurrently with live submits:
// the barrier must be race-clean and the engine must keep running.
func TestCheckpointWhileStreaming(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WithShards(4), WithJournal(store))
	for _, q := range concurrencyQueries {
		if _, err := eng.Register(q.name, q.src); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	events := concurrencyWorkload(30, 10)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(events); i += 10 {
			end := i + 10
			if end > len(events) {
				end = len(events)
			}
			if err := eng.SubmitBatch(events[i:end]); err != nil {
				return
			}
		}
	}()
	var lastOffset int64 = -1
	for i := 0; i < 5; i++ {
		info, err := eng.Checkpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		if info.Offset < lastOffset {
			t.Errorf("checkpoint offsets went backwards: %d after %d", info.Offset, lastOffset)
		}
		lastOffset = info.Offset
	}
	wg.Wait()
	if _, err := eng.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(dir); !errors.Is(err, ErrClosed) {
		t.Errorf("checkpoint after close = %v, want ErrClosed", err)
	}
	// The final pre-close checkpoint is restorable.
	if _, _, err := Restore(dir, WithoutStart(), WithoutReplay()); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreMatchesAcrossShardCounts opens one checkpoint directory, written
// by a 4-shard engine mid-window with a paused span behind one query, at 1, 2
// and 8 shards: started by Open, and opened WithoutStart, then started. State
// reaches the shards one way — RestoreStateBlobs folds it into the registered
// queries, Start hands it over — so after the journal tail replays every query
// must report the counters of the run that was never interrupted (the
// events-offered counter resuming where the capture left it, not at zero),
// and the tail must raise the same alerts every way in. StateBytes sums each
// replica's encoding, so it is compared between the two ways in at one shard
// count.
func TestRestoreMatchesAcrossShardCounts(t *testing.T) {
	queries := append([]struct{ name, src string }{
		{"ts-history", `proc p write ip i as e #time(500 ms)
state[3] ss { amt := sum(e.amount) } group by p
alert ss[0].amt > ss[1].amt + 50 && ss[0].amt > 100
return p, ss[0].amt, ss[1].amt`},
		{"inv-dsts", `proc p write ip i as e #time(600 ms)
state ss { dsts := set(i.dstip) } group by e.agentid
invariant[2] {
  known := empty_set
  known = known union ss.dsts
}
alert |ss.dsts diff known| >= 1
return ss.dsts`},
	}, concurrencyQueries...)
	events := concurrencyWorkload(96, 25)
	cut := len(events) / 2

	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithShards(4), WithJournal(store))
	for _, q := range queries {
		if _, err := e.Register(q.name, q.src); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	h, _ := e.Query("ts-history")
	for _, step := range []func() error{
		func() error { return e.SubmitBatch(events[:cut/2]) },
		h.Pause,
		func() error { return e.SubmitBatch(events[cut/2 : 3*cut/4]) },
		h.Resume,
		func() error { return e.SubmitBatch(events[3*cut/4 : cut]) },
		func() error { _, err := e.Checkpoint(dir); return err },
		func() error { return e.SubmitBatch(events[cut:]) }, // the tail every open replays
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]QueryStats{}
	for _, q := range queries {
		want[q.name], _ = e.QueryStats(q.name)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	type result struct {
		stats  map[string]QueryStats
		alerts []string
	}
	open := func(t *testing.T, shards int, startLater bool) result {
		var mu sync.Mutex
		var alerts []*Alert
		opts := WithRestoreEngineOptions(WithShards(shards), WithAlertHandler(func(a *Alert) {
			mu.Lock()
			alerts = append(alerts, a)
			mu.Unlock()
		}))
		var eng *Engine
		var err error
		if startLater {
			var info *RestoreInfo
			if eng, info, err = Open(dir, opts, WithoutStart(), WithoutReplay()); err != nil {
				t.Fatal(err)
			}
			// The restored by-group primary hands its state to fresh replicas
			// at Start: nothing may keep it (and a second copy of the state)
			// alive.
			primary := weak.Make(eng.reg["ts-history"].q)
			if err := eng.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			if primary.Value() != nil {
				t.Error("the by-group primary that handed its state over is still reachable after Start")
			}
			if _, err := eng.ReplayJournal(info.Offset); err != nil {
				t.Fatal(err)
			}
		} else if eng, _, err = Open(dir, opts); err != nil {
			t.Fatal(err)
		}
		if err := eng.RestoreStateBlobs(nil); !errors.Is(err, ErrAlreadyRunning) {
			t.Errorf("RestoreStateBlobs on a running engine = %v, want ErrAlreadyRunning", err)
		}
		res := result{stats: map[string]QueryStats{}}
		for _, q := range queries {
			res.stats[q.name], _ = eng.QueryStats(q.name)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if err := eng.RestoreStateBlobs(nil); !errors.Is(err, ErrClosed) {
			t.Errorf("RestoreStateBlobs on a closed engine = %v, want ErrClosed", err)
		}
		mu.Lock()
		res.alerts = sortedIdentities(alerts)
		mu.Unlock()
		return res
	}

	var ref []string
	for _, shards := range []int{1, 2, 8} {
		var opened result
		for _, startLater := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/open", shards)
			if startLater {
				name = fmt.Sprintf("shards=%d/without-start", shards)
			}
			t.Run(name, func(t *testing.T) {
				got := open(t, shards, startLater)
				if ref == nil {
					if ref = got.alerts; len(ref) == 0 {
						t.Fatal("the replayed tail raised no alerts")
					}
				}
				if !startLater {
					opened = got
				}
				for _, q := range queries {
					g, w := got.stats[q.name], want[q.name]
					if g.Events != w.Events || g.WindowsClosed != w.WindowsClosed ||
						g.PatternHits != w.PatternHits || g.Alerts != w.Alerts {
						t.Errorf("%s: stats %+v, want %+v as the uninterrupted run", q.name, g, w)
					}
					if sb := opened.stats[q.name].StateBytes; g.StateBytes != sb {
						t.Errorf("%s: StateBytes %d, want %d as opened started", q.name, g.StateBytes, sb)
					}
				}
				diffAlertSets(t, name, ref, got.alerts)
			})
		}
	}
}
