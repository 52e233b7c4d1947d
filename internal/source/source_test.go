package source

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"saql/internal/codec"
	"saql/internal/event"
)

// sink is a Submitter recording every batch.
type sink struct {
	mu      sync.Mutex
	batches [][]*event.Event
}

func (s *sink) SubmitBatch(evs []*event.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]*event.Event, len(evs))
	copy(cp, evs)
	s.batches = append(s.batches, cp)
	return nil
}

func (s *sink) events() []*event.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*event.Event
	for _, b := range s.batches {
		out = append(out, b...)
	}
	return out
}

// ndLine renders one native NDJSON event line with the given Unix-seconds
// timestamp.
func ndLine(ts float64, exe string, pid int, path string) string {
	return fmt.Sprintf(`{"ts":%g,"agent":"h1","subject":{"exe":%q,"pid":%d},"op":"write","object":{"type":"file","path":%q}}`,
		ts, exe, pid, path)
}

func TestReaderSourceBatchingAndOrder(t *testing.T) {
	// 5 events, timestamps out of order within the stream.
	input := strings.Join([]string{
		ndLine(10, "a", 1, "/f1"),
		ndLine(12, "a", 1, "/f2"),
		ndLine(11, "a", 1, "/f3"), // out of order
		"not json at all",         // decode error
		ndLine(13, "a", 1, "/f4"),
		ndLine(14, "a", 1, "/f5"),
	}, "\n")

	var decodeErrs []error
	src, err := FromReader(strings.NewReader(input), Config{
		Format:    "ndjson",
		BatchSize: 3,
		OnError:   func(e error) { decodeErrs = append(decodeErrs, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var dst sink
	if err := src.Run(context.Background(), &dst); err != nil {
		t.Fatalf("Run: %v", err)
	}

	evs := dst.events()
	if len(evs) != 5 {
		t.Fatalf("submitted %d events, want 5", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time.Before(evs[i-1].Time) {
			t.Fatalf("events out of order after batching: %v then %v", evs[i-1].Time, evs[i].Time)
		}
	}
	if len(dst.batches) != 2 || len(dst.batches[0]) != 3 || len(dst.batches[1]) != 2 {
		t.Fatalf("batch shapes = %v", batchSizes(dst.batches))
	}

	st := src.Stats()
	if st.Lines != 6 || st.Events != 5 || st.DecodeErrors != 1 || st.Batches != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// [10,12,11] sorts to [10,11,12]: two events end up in new positions.
	if st.Reordered != 2 {
		t.Fatalf("reordered = %d, want 2", st.Reordered)
	}
	if len(decodeErrs) != 1 {
		t.Fatalf("OnError saw %d errors, want 1", len(decodeErrs))
	}
	if st.Dropped != 0 || st.Late != 0 {
		t.Fatalf("unexpected late/dropped: %+v", st)
	}
}

func TestStrictOrderDropsCrossBatchStragglers(t *testing.T) {
	// Batch 1 submits up to t=20; the t=15 event in batch 2 is beyond
	// repair. With StrictOrder it is dropped; without it is submitted late.
	lines := strings.Join([]string{
		ndLine(10, "a", 1, "/f1"),
		ndLine(20, "a", 1, "/f2"),
		ndLine(15, "a", 1, "/f3"), // straggler, lands in batch 2
		ndLine(25, "a", 1, "/f4"),
	}, "\n")

	for _, strict := range []bool{true, false} {
		src, err := FromReader(strings.NewReader(lines), Config{
			Format: "ndjson", BatchSize: 2, StrictOrder: strict,
		})
		if err != nil {
			t.Fatal(err)
		}
		var dst sink
		if err := src.Run(context.Background(), &dst); err != nil {
			t.Fatal(err)
		}
		st := src.Stats()
		if strict {
			if got := len(dst.events()); got != 3 {
				t.Errorf("strict: submitted %d events, want 3", got)
			}
			if st.Dropped != 1 || st.Late != 0 {
				t.Errorf("strict stats = %+v", st)
			}
		} else {
			if got := len(dst.events()); got != 4 {
				t.Errorf("lenient: submitted %d events, want 4", got)
			}
			if st.Dropped != 0 || st.Late != 1 {
				t.Errorf("lenient stats = %+v", st)
			}
		}
	}
}

func TestFileSourceFollow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.ndjson")
	if err := os.WriteFile(path, []byte(ndLine(1, "a", 1, "/f1")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	src, err := FromFile(path, Config{Format: "ndjson", Follow: true, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var dst sink
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, &dst) }()

	waitFor(t, func() bool { return len(dst.events()) == 1 }, "initial event")

	// Append one whole line plus a partial line: the partial must be held
	// back until its newline arrives.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := ndLine(2, "a", 1, "/f2") + "\n"
	partial := ndLine(3, "a", 1, "/f3")
	if _, err := f.WriteString(full + partial[:20]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(dst.events()) == 2 }, "appended event")
	time.Sleep(3 * followPollInterval)
	if got := len(dst.events()); got != 2 {
		t.Fatalf("partial line leaked: %d events", got)
	}
	if _, err := f.WriteString(partial[20:] + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	waitFor(t, func() bool { return len(dst.events()) == 3 }, "completed partial line")

	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if st := src.Stats(); st.Lines != 3 || st.Events != 3 || st.DecodeErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFileSourceNoFollowEndsAtEOF(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.ndjson")
	content := ndLine(1, "a", 1, "/f1") + "\n" + ndLine(2, "b", 2, "/f2") + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := FromFile(path, Config{Format: "ndjson"})
	if err != nil {
		t.Fatal(err)
	}
	var dst sink
	if err := src.Run(context.Background(), &dst); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := len(dst.events()); got != 2 {
		t.Fatalf("events = %d, want 2", got)
	}
	// A source can only run once.
	if err := src.Run(context.Background(), &dst); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestTCPSourceMergesConnections(t *testing.T) {
	src, err := Listen("127.0.0.1:0", Config{Format: "ndjson", BatchSize: 4, FlushInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var dst sink
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, &dst) }()

	send := func(lines ...string) {
		conn, err := net.Dial("tcp", src.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, l := range lines {
			if _, err := conn.Write([]byte(l + "\n")); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(ndLine(1, "a", 1, "/f1"), ndLine(2, "a", 1, "/f2"))
	send(ndLine(3, "b", 2, "/f3"))

	waitFor(t, func() bool { return len(dst.events()) == 3 }, "tcp events")
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if st := src.Stats(); st.Events != 3 || st.Lines != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSubmittedBatchesAreImmutable pins the ownership contract: the engine
// queues submitted slices and consumes them asynchronously, so the batcher
// must never write into a batch it has already handed over.
func TestSubmittedBatchesAreImmutable(t *testing.T) {
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, ndLine(float64(i+1), "a", 1, fmt.Sprintf("/f%02d", i)))
	}
	src, err := FromReader(strings.NewReader(strings.Join(lines, "\n")), Config{Format: "ndjson", BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// This sink retains the submitted slices verbatim (no copy), exactly
	// like the runtime's ingest queue does.
	var retained [][]*event.Event
	hold := submitFn(func(evs []*event.Event) error {
		retained = append(retained, evs)
		return nil
	})
	if err := src.Run(context.Background(), hold); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, batch := range retained {
		for _, ev := range batch {
			path := ev.Object.Path
			if seen[path] {
				t.Fatalf("event %s appears in two batches: a submitted slice was overwritten", path)
			}
			seen[path] = true
		}
	}
	if len(seen) != 40 {
		t.Fatalf("retained %d distinct events, want 40", len(seen))
	}
}

type submitFn func([]*event.Event) error

func (f submitFn) SubmitBatch(evs []*event.Event) error { return f(evs) }

// TestOverlongLineIsSkippedNotFatal pins the decode-error contract for
// lines beyond maxLineBytes.
func TestOverlongLineIsSkippedNotFatal(t *testing.T) {
	long := strings.Repeat("x", maxLineBytes+1024)
	input := ndLine(1, "a", 1, "/before") + "\n" + long + "\n" + ndLine(2, "a", 1, "/after") + "\n"
	src, err := FromReader(strings.NewReader(input), Config{Format: "ndjson"})
	if err != nil {
		t.Fatal(err)
	}
	var dst sink
	if err := src.Run(context.Background(), &dst); err != nil {
		t.Fatalf("Run: %v (an over-long line must not stop the source)", err)
	}
	evs := dst.events()
	if len(evs) != 2 || evs[0].Object.Path != "/before" || evs[1].Object.Path != "/after" {
		t.Fatalf("events around the over-long line = %v", evs)
	}
	st := src.Stats()
	if st.DecodeErrors != 1 {
		t.Fatalf("decode errors = %d, want 1", st.DecodeErrors)
	}
}

// chunkReader hands its data out at most n bytes per Read, so a test chooses
// where the source's read pages fall.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// paddedLine is a decodable line of exactly n bytes: JSON whitespace before
// the closing brace makes up the length.
func paddedLine(t *testing.T, n int, path string) string {
	t.Helper()
	line := ndLine(1, "a", 1, path)
	if len(line) > n {
		t.Fatalf("cannot pad a %d-byte line down to %d", len(line), n)
	}
	return line[:len(line)-1] + strings.Repeat(" ", n-len(line)) + "}"
}

// TestMaxLineBytesBoundsCompleteLines: the bound holds for a line however
// the reads deliver it — whole in one page with its newline (where it used
// to slip through at up to maxLineBytes plus a page), or across pages. A
// line of exactly maxLineBytes is decoded; one byte more is one decode error
// and the stream goes on.
func TestMaxLineBytesBoundsCompleteLines(t *testing.T) {
	atBound := paddedLine(t, maxLineBytes, "/at-bound")
	overBound := paddedLine(t, maxLineBytes+1, "/over-bound")
	input := atBound + "\n" + overBound + "\n" + ndLine(2, "a", 1, "/after") + "\n"

	// 64 KiB reads fill the source's page, so each long line crosses many
	// pages and ends a few bytes into one; small odd reads move where.
	for _, chunk := range []int{64 * 1024, 4093} {
		t.Run(fmt.Sprintf("read=%d", chunk), func(t *testing.T) {
			var errs []error
			src, err := FromReader(&chunkReader{data: []byte(input), n: chunk}, Config{
				Format: "ndjson", OnError: func(e error) { errs = append(errs, e) },
			})
			if err != nil {
				t.Fatal(err)
			}
			var dst sink
			if err := src.Run(context.Background(), &dst); err != nil {
				t.Fatalf("Run: %v", err)
			}
			checkBoundRun(t, dst.events(), src.Stats(), errs)
		})
	}

	// The whole input as one page: every newline arrives with its line.
	t.Run("one page", func(t *testing.T) {
		var errs []error
		src, err := FromReader(strings.NewReader(""), Config{Format: "ndjson"})
		if err != nil {
			t.Fatal(err)
		}
		decs, err := src.newDecoders(src.decodeWorkers())
		if err != nil {
			t.Fatal(err)
		}
		var dst sink
		b := &batcher{cfg: src.cfg, ctr: &src.ctr, dst: &dst}
		p := startPool(decs, b, &src.ctr, func(e error) { errs = append(errs, e) })
		if !p.cut([]byte(input)) {
			t.Fatal("the in-order stage stopped")
		}
		p.finish()
		if err := p.stop(); err != nil {
			t.Fatal(err)
		}
		if err := b.flush(); err != nil {
			t.Fatal(err)
		}
		checkBoundRun(t, dst.events(), src.Stats(), errs)
	})
}

func checkBoundRun(t *testing.T, evs []*event.Event, st Stats, errs []error) {
	t.Helper()
	if len(evs) != 2 || evs[0].Object.Path != "/at-bound" || evs[1].Object.Path != "/after" {
		t.Fatalf("decoded %d events %v, want /at-bound and /after", len(evs), evs)
	}
	if st.Lines != 3 || st.Events != 2 || st.DecodeErrors != 1 {
		t.Fatalf("stats = %+v, want 3 lines, 2 events, 1 decode error", st)
	}
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "exceeds") {
		t.Fatalf("OnError saw %v, want the one over-long line", errs)
	}
}

// TestBatchesIndependentOfReadSize: what a single-stream source submits —
// batch boundaries, contents, order, every counter — does not depend on how
// the reader cuts the stream into reads, though events now reach the batcher
// a page at a time.
func TestBatchesIndependentOfReadSize(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 2500; i++ {
		switch {
		case i%97 == 0:
			in.WriteString("not json\r\n")
		case i%89 == 0:
			in.WriteString("\n")
		default:
			// Mostly ascending, with local disorder and the odd straggler
			// that falls behind the watermark.
			ts := float64(1000 + i)
			if i%7 == 0 {
				ts -= 3
			}
			if i%500 == 499 {
				ts -= 400
			}
			in.WriteString(ndLine(ts, fmt.Sprintf("exe%d", i%13), i, fmt.Sprintf("/data/file-%d", i)))
			in.WriteString("\n")
		}
	}
	in.WriteString(ndLine(9999, "last", 1, "/unterminated")) // no trailing newline
	if in.Len() < 3*64*1024 {
		t.Fatalf("input is %d bytes; want several 64 KiB pages", in.Len())
	}

	type run struct {
		batches [][]string
		stats   Stats
	}
	feed := func(chunk int, strict bool) run {
		src, err := FromReader(&chunkReader{data: []byte(in.String()), n: chunk}, Config{Format: "ndjson", BatchSize: 64, StrictOrder: strict})
		if err != nil {
			t.Fatal(err)
		}
		var dst sink
		if err := src.Run(context.Background(), &dst); err != nil {
			t.Fatal(err)
		}
		r := run{stats: src.Stats()}
		for _, b := range dst.batches {
			var paths []string
			for _, ev := range b {
				paths = append(paths, ev.Object.Path)
			}
			r.batches = append(r.batches, paths)
		}
		return r
	}
	for _, strict := range []bool{false, true} {
		want := feed(64*1024, strict)
		if want.stats.Reordered == 0 || want.stats.DecodeErrors == 0 || want.stats.Late+want.stats.Dropped == 0 {
			t.Fatalf("strict=%v: input exercises too little: %+v", strict, want.stats)
		}
		for _, chunk := range []int{1, 100} {
			got := feed(chunk, strict)
			if got.stats != want.stats {
				t.Errorf("strict=%v read=%d: stats %+v, want %+v", strict, chunk, got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.batches, want.batches) {
				t.Errorf("strict=%v read=%d: submitted batches differ from the 64 KiB run (%d vs %d batches)", strict, chunk, len(got.batches), len(want.batches))
			}
		}
	}
}

// TestAbsurdTimestampDoesNotPoisonWatermark: a line whose numeric ts is far
// beyond any calendar used to decode to a garbage instant; a future one was
// adopted as the watermark and every later event dropped as late. It is now
// a decode error like any other malformed line.
func TestAbsurdTimestampDoesNotPoisonWatermark(t *testing.T) {
	for _, bad := range []string{"1e300", "9e18", "253402300800"} {
		lines := []string{ndLine(10, "a", 1, "/f1"), ndLine(11, "a", 1, "/f2")}
		lines = append(lines, strings.Replace(ndLine(12, "a", 1, "/poison"), `"ts":12`, `"ts":`+bad, 1))
		for i := 0; i < 6; i++ {
			lines = append(lines, ndLine(float64(13+i), "a", 1, fmt.Sprintf("/g%d", i)))
		}
		src, err := FromReader(strings.NewReader(strings.Join(lines, "\n")), Config{Format: "ndjson", BatchSize: 3, StrictOrder: true})
		if err != nil {
			t.Fatal(err)
		}
		var dst sink
		if err := src.Run(context.Background(), &dst); err != nil {
			t.Fatal(err)
		}
		st := src.Stats()
		if st.Dropped != 0 || st.Late != 0 || st.DecodeErrors != 1 || st.Events != 8 {
			t.Errorf("ts %s: stats = %+v, want 8 events, 1 decode error, nothing dropped", bad, st)
		}
		if got := len(dst.events()); got != 8 {
			t.Errorf("ts %s: submitted %d events, want 8", bad, got)
		}
	}
}

// TestTCPSourceCancelWithIdleConnection pins shutdown behaviour: an idle
// sender parked in conn.Read must not hang Run after cancellation.
func TestTCPSourceCancelWithIdleConnection(t *testing.T) {
	src, err := Listen("127.0.0.1:0", Config{Format: "ndjson"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var dst sink
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, &dst) }()

	// Connect, send one complete line, then go idle without closing.
	conn, err := net.Dial("tcp", src.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(ndLine(1, "a", 1, "/f1") + "\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(dst.events()) == 1 }, "event before cancel")

	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run hung after cancel with an idle connection open")
	}
}

// TestProducerSourceFlushesDueEventsAndCancels: a producer that paces
// itself (a replay waiting out the gap to its next event) does not hold the
// events it already emitted hostage to a full batch — they are submitted
// within FlushInterval — and cancellation ends the run with ctx's error at
// the next emit, after which a submission error is what Run reports.
func TestProducerSourceFlushesDueEventsAndCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var dst sink
	release := make(chan struct{})
	src := FromProducer("paced", func(ctx context.Context, emit func(*event.Event) error) error {
		for i := 0; i < 3; i++ {
			if err := emit(&event.Event{Time: time.Unix(int64(i), 0)}); err != nil {
				return err
			}
		}
		<-release // the gap: nothing more is due
		return emit(&event.Event{Time: time.Unix(3, 0)})
	}, Config{BatchSize: 100, FlushInterval: 10 * time.Millisecond})
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, &dst) }()

	waitFor(t, func() bool { return len(dst.events()) == 3 }, "the partial batch to flush mid-gap")
	cancel()
	close(release)
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if st := src.Stats(); st.Events != 3 || st.Batches != 1 || st.Lines != 0 {
		t.Errorf("stats = %+v, want 3 events in 1 batch", st)
	}

	boom := fmt.Errorf("queue closed")
	failing := FromProducer("failing", func(_ context.Context, emit func(*event.Event) error) error {
		for i := 0; ; i++ {
			if err := emit(&event.Event{Time: time.Unix(int64(i), 0)}); err != nil {
				return err
			}
		}
	}, Config{BatchSize: 2})
	if err := failing.Run(context.Background(), submitFn(func([]*event.Event) error { return boom })); err != boom {
		t.Fatalf("Run = %v, want the submission error", err)
	}
}

func TestSourceRejectsUnknownFormat(t *testing.T) {
	if _, err := FromReader(strings.NewReader(""), Config{Format: "syslog"}); err == nil {
		t.Fatal("unknown format should fail at construction")
	}
	if _, err := Listen("127.0.0.1:0", Config{Format: "nope"}); err == nil {
		t.Fatal("unknown format should fail before binding")
	}
}

func batchSizes(batches [][]*event.Event) []int {
	out := make([]int, len(batches))
	for i, b := range batches {
		out[i] = len(b)
	}
	return out
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBatcherSubmitAllocs: the batcher is the serial part of a source, so
// submitting a batch allocates nothing, sorted or not.
func TestBatcherSubmitAllocs(t *testing.T) {
	ordered := make([]*event.Event, 256)
	for i := range ordered {
		ordered[i] = &event.Event{Time: time.Unix(int64(i), 0)}
	}
	shuffled := slices.Clone(ordered)
	for i := 0; i+1 < len(shuffled); i += 3 {
		shuffled[i], shuffled[i+1] = shuffled[i+1], shuffled[i]
	}
	var ctr counters
	b := &batcher{cfg: Config{}.withDefaults(), ctr: &ctr, dst: submitFn(func([]*event.Event) error { return nil })}
	batch := make([]*event.Event, len(ordered))
	for _, tc := range []struct {
		name string
		in   []*event.Event
	}{{"sorted", ordered}, {"unsorted", shuffled}} {
		allocs := testing.AllocsPerRun(100, func() {
			copy(batch, tc.in)
			if err := b.submit(batch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s batch: %v allocs per submit, want 0", tc.name, allocs)
		}
	}
	if ctr.reordered.Load() == 0 {
		t.Fatal("the unsorted batch was not reordered")
	}
}

// skipAll is a destination that prefilters with a table admitting no line;
// with stale set it reports every table stale, so each batch is built.
type skipAll struct {
	sink
	stale   bool
	skipped int64
}

func (s *skipAll) Prefilter() (codec.Prefilter, uint64) { return admitNothing{}, 1 }

func (s *skipAll) SubmitSkipping(evs []*event.Event, skipped int64, _ time.Time, _ uint64) (bool, error) {
	if s.stale {
		return true, nil
	}
	s.skipped += skipped
	return false, s.SubmitBatch(evs)
}

type admitNothing struct{}

func (admitNothing) Admit([]byte, event.Op) bool { return false }

// TestSkipRecordsLetGoOfLongLines: a skip record reused for short lines
// does not keep the size of the longest line it once held. A few skipped
// lines longer than a page, then many short ones, leave the records
// holding about what the short lines need, on the fresh and the stale path.
func TestSkipRecordsLetGoOfLongLines(t *testing.T) {
	var in strings.Builder
	for i := range 20 {
		in.WriteString(ndLine(float64(i), "a", 1, strings.Repeat("p", 4*pageBytes)) + "\n")
	}
	for i := range 5000 {
		in.WriteString(ndLine(float64(20+i), "a", 1, "/short") + "\n")
	}
	for _, stale := range []bool{false, true} {
		t.Run(fmt.Sprintf("stale=%v", stale), func(t *testing.T) {
			src, err := FromReader(strings.NewReader(in.String()), Config{Format: "ndjson"})
			if err != nil {
				t.Fatal(err)
			}
			dst := &skipAll{stale: stale}
			b := &batcher{cfg: src.cfg, ctr: &src.ctr, dst: dst, skip: dst, sym: &src.sym}
			if err := src.run(context.Background(), b); err != nil {
				t.Fatal(err)
			}
			if err := b.flush(); err != nil {
				t.Fatal(err)
			}
			if n := int64(len(dst.events())) + dst.skipped; n != 5020 {
				t.Fatalf("%d lines reached the destination, want 5020", n)
			}
			held := 0
			for _, r := range b.recs {
				held += cap(r.line)
			}
			if len(b.recs) == 0 || held > len(b.recs)*1024 {
				t.Fatalf("%d skip records hold %d bytes, want at most 1 KiB each on average", len(b.recs), held)
			}
		})
	}
}
