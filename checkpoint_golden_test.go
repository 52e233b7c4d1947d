package saql

// Golden fence for the checkpoint format: testdata/midwindow-v3.ckpt is a
// real checkpoint file, written mid-window by the commit that preceded the
// state maintainer's rewrite (slot-indexed group bindings, field-ordered
// snapshots). The current encoder must reproduce it byte for byte from the
// same stream prefix, and the current decoder must restore it and finish the
// stream alert-for-alert with an uninterrupted run.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"saql/internal/snapshot"
)

const checkpointGoldenPath = "testdata/midwindow-v3.ckpt"

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

	// This build's checkpoint of the same prefix.
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
	// SAQL_UPDATE_GOLDEN=1 (as for cmd/saql's golden alerts) rewrites the file
	// from this build's encoder: only for a deliberate format change.
	if os.Getenv("SAQL_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(checkpointGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(checkpointGoldenPath, written, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(checkpointGoldenPath)
	if err != nil {
		t.Fatal(err)
	}

	// Byte identity, the capture timestamp aside.
	wantSnap, err := snapshot.Decode(golden)
	if err != nil {
		t.Fatalf("golden checkpoint does not decode: %v", err)
	}
	gotSnap, err := snapshot.Decode(written)
	if err != nil {
		t.Fatal(err)
	}
	gotSnap.TakenAt = wantSnap.TakenAt
	if !bytes.Equal(snapshot.Encode(gotSnap), golden) {
		for i, q := range wantSnap.Queries {
			if i < len(gotSnap.Queries) && !bytes.Equal(q.States[0], gotSnap.Queries[i].States[0]) {
				t.Errorf("query %q: state blob differs from the golden checkpoint (%d vs %d bytes)",
					q.Name, len(gotSnap.Queries[i].States[0]), len(q.States[0]))
			}
		}
		t.Fatal("checkpoint bytes differ from testdata/midwindow-v3.ckpt")
	}

	// Restore the golden file over the journal e1 wrote and finish the stream.
	if err := os.WriteFile(snapshot.Path(dir), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	e2, info, err := Restore(dir, WithoutStart())
	if err != nil {
		t.Fatal(err)
	}
	if info.Offset != int64(cut) || info.Replayed != 0 {
		t.Fatalf("restore info = offset %d replayed %d, want offset %d replayed 0", info.Offset, info.Replayed, cut)
	}
	var got []*Alert
	for _, ev := range events[cut:] {
		got = append(got, e2.Process(ev)...)
	}
	got = append(got, e2.Flush()...)
	diffAlertSets(t, "golden mid-window checkpoint", sortedIdentities(want), sortedIdentities(got))
}

const partialsGoldenPath = "testdata/partials-v3.ckpt"

// TestGoldenPartialsCheckpoint is the golden fence for the multievent
// matcher's state: testdata/partials-v3.ckpt is a real checkpoint of the
// corpus's multievent queries, cut while they hold live partial matches,
// written by the commit that preceded partials becoming their events alone
// (the checkpoint then wrote each partial's name-keyed map of entity keys;
// now it derives the same pairs from the events). The current encoder must
// reproduce it byte for byte, and the current decoder must restore it and
// finish the stream alert-for-alert with an uninterrupted run.
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

	// This build's checkpoint of the same prefix.
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
		if err := os.WriteFile(partialsGoldenPath, written, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(partialsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}

	// Byte identity, the capture timestamp aside.
	wantSnap, err := snapshot.Decode(golden)
	if err != nil {
		t.Fatalf("golden checkpoint does not decode: %v", err)
	}
	gotSnap, err := snapshot.Decode(written)
	if err != nil {
		t.Fatal(err)
	}
	gotSnap.TakenAt = wantSnap.TakenAt
	if !bytes.Equal(snapshot.Encode(gotSnap), golden) {
		for i, q := range wantSnap.Queries {
			if i < len(gotSnap.Queries) && !bytes.Equal(q.States[0], gotSnap.Queries[i].States[0]) {
				t.Errorf("query %q: state blob differs from the golden checkpoint (%d vs %d bytes)",
					q.Name, len(gotSnap.Queries[i].States[0]), len(q.States[0]))
			}
		}
		t.Fatal("checkpoint bytes differ from " + partialsGoldenPath)
	}

	// Restore the golden file over the journal e1 wrote and finish the stream.
	if err := os.WriteFile(snapshot.Path(dir), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	e2, info, err := Restore(dir, WithoutStart())
	if err != nil {
		t.Fatal(err)
	}
	if info.Offset != int64(cut) || info.Replayed != 0 {
		t.Fatalf("restore info = offset %d replayed %d, want offset %d replayed 0", info.Offset, info.Replayed, cut)
	}
	var got []*Alert
	for _, ev := range events[cut:] {
		got = append(got, e2.Process(ev)...)
	}
	got = append(got, e2.Flush()...)
	diffAlertSets(t, "golden partials checkpoint", sortedIdentities(want), sortedIdentities(got))
	t.Logf("%d alerts after the cut, %d completing a match begun before it; checkpoint %d bytes", len(want), spans, len(golden))
}
