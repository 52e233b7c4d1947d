package saql

// Golden fences for the checkpoint format. Each fence is a pair of real
// checkpoint files of one stream prefix: a version-3 file written by an
// earlier build, whose bytes never change, and the version-4 file of the
// same cut. This build's checkpoint of the prefix must reproduce the v4 file
// byte for byte (the capture timestamp aside); the v3 file must decode to
// the same snapshot and re-encode as the v4 file; and each file must restore
// and finish the stream alert-for-alert with an uninterrupted run.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"saql/internal/snapshot"
)

// fenceGoldenCheckpoint checkpoints events[:cut] through a journaled engine
// set up by register, holds the checkpoint and the two golden files to each
// other, then restores each golden file over the prefix's journal and
// requires the rest of the stream to raise want. SAQL_UPDATE_GOLDEN=1 (as for
// cmd/saql's golden alerts) rewrites the v4 file from this build's encoder:
// only for a deliberate format change. The v3 file is never rewritten.
func fenceGoldenCheckpoint(t *testing.T, events []*Event, cut int, register func(*Engine), v3Path, v4Path string, want []*Alert) {
	t.Helper()
	// This build's checkpoint of the prefix.
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(WithJournal(store))
	register(e1)
	for _, ev := range events[:cut] {
		e1.Process(ev)
	}
	if _, err := e1.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(snapshot.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("SAQL_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(v4Path, written, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	v3, err := os.ReadFile(v3Path)
	if err != nil {
		t.Fatal(err)
	}
	v4, err := os.ReadFile(v4Path)
	if err != nil {
		t.Fatal(err)
	}

	// Byte identity with the v4 file, the capture timestamp aside.
	v4Snap, err := snapshot.Decode(v4)
	if err != nil {
		t.Fatalf("%s does not decode: %v", v4Path, err)
	}
	gotSnap, err := snapshot.Decode(written)
	if err != nil {
		t.Fatal(err)
	}
	gotSnap.TakenAt = v4Snap.TakenAt
	if !bytes.Equal(snapshot.Encode(gotSnap), v4) {
		for i, q := range v4Snap.Queries {
			if i < len(gotSnap.Queries) && !bytes.Equal(q.States[0], gotSnap.Queries[i].States[0]) {
				t.Errorf("query %q: state blob differs from the golden checkpoint (%d vs %d bytes)",
					q.Name, len(gotSnap.Queries[i].States[0]), len(q.States[0]))
			}
		}
		t.Fatal("checkpoint bytes differ from " + v4Path)
	}

	// The v3 file upgrades: it decodes, and re-encoded it is the v4 file and
	// decodes to an equal snapshot.
	v3Snap, err := snapshot.Decode(v3)
	if err != nil {
		t.Fatalf("%s does not decode: %v", v3Path, err)
	}
	v3Snap.TakenAt = v4Snap.TakenAt
	upgraded := snapshot.Encode(v3Snap)
	again, err := snapshot.Decode(upgraded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, v3Snap) {
		t.Errorf("%s re-encoded as v4 decodes to a different snapshot", v3Path)
	}
	if !bytes.Equal(upgraded, v4) {
		t.Errorf("%s re-encoded as v4 differs from %s", v3Path, v4Path)
	}

	// Restore each file over its own copy of the prefix's journal (a
	// restored engine journals the events it goes on to process) and finish
	// the stream.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, golden := range []struct {
		path string
		data []byte
	}{{v3Path, v3}, {v4Path, v4}} {
		rdir := t.TempDir()
		for _, ent := range entries {
			data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(rdir, ent.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(snapshot.Path(rdir), golden.data, 0o644); err != nil {
			t.Fatal(err)
		}
		e2, info, err := Restore(rdir, WithoutStart())
		if err != nil {
			t.Fatalf("restore %s: %v", golden.path, err)
		}
		if info.Offset != int64(cut) || info.Replayed != 0 {
			t.Fatalf("restore %s: info = offset %d replayed %d, want offset %d replayed 0", golden.path, info.Offset, info.Replayed, cut)
		}
		var got []*Alert
		for _, ev := range events[cut:] {
			got = append(got, e2.Process(ev)...)
		}
		got = append(got, e2.Flush()...)
		if err := e2.Close(); err != nil {
			t.Fatal(err)
		}
		diffAlertSets(t, "restored "+golden.path, sortedIdentities(want), sortedIdentities(got))
	}
}

// TestGoldenMidWindowCheckpoint is the golden fence for the state
// maintainer's window state: testdata/midwindow-v3.ckpt is a checkpoint cut
// mid-window, written by the commit that preceded the state maintainer's
// rewrite (slot-indexed group bindings, field-ordered snapshots), and
// testdata/midwindow-v4.ckpt the same cut in the sectioned format, with the
// same state blobs.
func TestGoldenMidWindowCheckpoint(t *testing.T) {
	events, _ := buildDemoStream(t, 3*time.Minute, time.Minute)
	// Cut inside the 10 s, 30 s, 1 min and 10 min windows at once.
	cut := 0
	for cut < len(events) && events[cut].Time.Before(demoStart.Add(95*time.Second)) {
		cut++
	}
	if cut == 0 || cut == len(events) {
		t.Fatalf("cut %d of %d events is not mid-stream", cut, len(events))
	}
	register := func(e *Engine) {
		t.Helper()
		for _, c := range conformanceCorpus {
			// Rule queries hold no window state. k-means seeds from its first
			// input point, which the reference commit fed in map order, so
			// that query's alert counter is not reproducible there. The
			// golden file predates history-scalars.
			if c.Kind == KindRule.String() || c.Name == "kmeans-outlier" || c.Name == "history-scalars" {
				continue
			}
			if _, err := e.Register(c.Name, c.Src); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Uninterrupted reference: the alerts raised after the cut.
	ref := New()
	register(ref)
	for _, ev := range events[:cut] {
		ref.Process(ev)
	}
	var want []*Alert
	for _, ev := range events[cut:] {
		want = append(want, ref.Process(ev)...)
	}
	want = append(want, ref.Flush()...)
	if len(want) == 0 {
		t.Fatal("reference run raised no alerts after the cut")
	}

	fenceGoldenCheckpoint(t, events, cut, register, "testdata/midwindow-v3.ckpt", "testdata/midwindow-v4.ckpt", want)
}

// TestGoldenPartialsCheckpoint is the golden fence for the multievent
// matcher's state: testdata/partials-v3.ckpt is a real checkpoint of the
// corpus's multievent queries, cut while they hold live partial matches,
// written by the commit that preceded partials becoming their events alone
// (the checkpoint then wrote each partial's name-keyed map of entity keys;
// now it derives the same pairs from the events), and
// testdata/partials-v4.ckpt the same cut in the sectioned format, with the
// same state blobs.
func TestGoldenPartialsCheckpoint(t *testing.T) {
	events, _ := buildDemoStream(t, time.Minute, 40*time.Second)
	cutAt := demoStart.Add(30 * time.Second)
	cut := 0
	for cut < len(events) && events[cut].Time.Before(cutAt) {
		cut++
	}
	if cut == 0 || cut == len(events) {
		t.Fatalf("cut %d of %d events is not mid-stream", cut, len(events))
	}
	register := func(e *Engine) {
		t.Helper()
		for _, c := range conformanceCorpus {
			switch c.Name {
			case "temporal-pair", "temporal-full-chain", "unordered-conjunction", "rule-with-horizon-window":
				if _, err := e.Register(c.Name, c.Src); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Uninterrupted reference: the alerts raised after the cut. One of them
	// must complete a match begun before the cut, or the checkpoint held no
	// partial that mattered.
	ref := New()
	register(ref)
	for _, ev := range events[:cut] {
		ref.Process(ev)
	}
	var want []*Alert
	for _, ev := range events[cut:] {
		want = append(want, ref.Process(ev)...)
	}
	want = append(want, ref.Flush()...)
	spans := 0
	for _, a := range want {
		for _, ev := range a.Events {
			if ev != nil && ev.Time.Before(cutAt) {
				spans++
				break
			}
		}
	}
	if spans == 0 {
		t.Fatalf("none of the %d alerts after the cut completes a partial match live at the cut", len(want))
	}

	fenceGoldenCheckpoint(t, events, cut, register, "testdata/partials-v3.ckpt", "testdata/partials-v4.ckpt", want)
	t.Logf("%d alerts after the cut, %d completing a match begun before it", len(want), spans)
}
