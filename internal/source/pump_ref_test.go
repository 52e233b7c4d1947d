package source

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"saql/internal/codec"
	"saql/internal/event"
	"saql/internal/leakcheck"
)

// lineFeeder and refPump are the line pump the decode pool replaced: one
// goroutine reads, splits and decodes a byte stream with one decoder and
// feeds the batcher one read page at a time. They are the oracle of
// TestPumpMatchesSequential.
type lineFeeder struct {
	dec       codec.Decoder
	b         *batcher
	ctr       *counters
	onErr     func(error)
	tail      []byte         // partial line awaiting its newline
	discardTo bool           // inside an over-long line, dropping until newline
	evs       []*event.Event // events of the page being fed
	lines     int64          // lines of the page being fed
}

// line hands one complete line to the codec, collecting what it emits.
func (lf *lineFeeder) line(line []byte) {
	lf.lines++
	if len(line) > maxLineBytes {
		lf.decodeError(errLineTooLong)
		return
	}
	evs, err := lf.dec.Decode(bytes.TrimSuffix(line, []byte("\r")))
	if err != nil {
		lf.decodeError(err)
	}
	lf.evs = append(lf.evs, evs...)
}

func (lf *lineFeeder) decodeError(err error) {
	lf.ctr.decodeErrors.Add(1)
	if lf.onErr != nil {
		lf.onErr(err)
	}
}

// submit passes the page's events and line count on.
func (lf *lineFeeder) submit() error {
	lf.ctr.lines.Add(lf.lines)
	err := lf.b.add(lf.evs)
	lf.evs, lf.lines = lf.evs[:0], 0
	return err
}

// feed consumes one page of raw bytes, emitting every line it completes.
func (lf *lineFeeder) feed(page []byte) error {
	for {
		i := bytes.IndexByte(page, '\n')
		if i < 0 {
			break
		}
		line := page[:i]
		page = page[i+1:]
		switch {
		case lf.discardTo:
			lf.discardTo = false
		case len(lf.tail) > 0:
			lf.tail = append(lf.tail, line...)
			lf.line(lf.tail)
			lf.tail = lf.tail[:0]
		default:
			lf.line(line)
		}
	}
	if !lf.discardTo {
		lf.tail = append(lf.tail, page...)
		if len(lf.tail) > maxLineBytes {
			lf.lines++
			lf.decodeError(errLineTooLong)
			lf.discardTo = true
			lf.tail = nil
		}
	}
	return lf.submit()
}

// finish handles end of stream: a trailing unterminated line is decoded.
func (lf *lineFeeder) finish() error {
	if len(lf.tail) == 0 {
		return nil
	}
	lf.line(lf.tail)
	lf.tail = nil
	return lf.submit()
}

// refPump reads r line by line through dec into b until EOF.
func refPump(r io.Reader, dec codec.Decoder, b *batcher, ctr *counters, onErr func(error)) error {
	lf := &lineFeeder{dec: dec, b: b, ctr: ctr, onErr: onErr}
	page := make([]byte, pageBytes)
	for {
		n, err := r.Read(page)
		if n > 0 {
			if ferr := lf.feed(page[:n]); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return lf.finish()
		}
		if err != nil {
			return err
		}
	}
}

// pumpRun is what one reader source submitted, counted and reported.
type pumpRun struct {
	batches [][]*event.Event
	stats   Stats
	errs    []string
}

// refRun feeds input through the oracle, read bytes at a time, as a reader
// source configured by cfg would.
func refRun(t *testing.T, input []byte, read int, cfg Config) pumpRun {
	t.Helper()
	cfg = cfg.withDefaults()
	var (
		run pumpRun
		ctr counters
		sym codec.InternStats
		dst sink
	)
	dec, err := codec.New(cfg.Format, codec.Options{DefaultAgent: cfg.Agent, Intern: &sym})
	if err != nil {
		t.Fatal(err)
	}
	b := &batcher{cfg: cfg, ctr: &ctr, dst: &dst}
	onErr := func(e error) { run.errs = append(run.errs, e.Error()) }
	if err := refPump(&chunkReader{data: input, n: read}, dec, b, &ctr, onErr); err != nil {
		t.Fatal(err)
	}
	if err := b.add(dec.Flush()); err != nil {
		t.Fatal(err)
	}
	if err := b.flush(); err != nil {
		t.Fatal(err)
	}
	run.batches, run.stats = dst.batches, ctr.snapshot()
	run.stats.SymbolHits, run.stats.SymbolMisses, run.stats.SymbolEntries = sym.Hits.Load(), sym.Misses.Load(), sym.Entries.Load()
	return run
}

// sourceRun feeds input through a reader source, read bytes at a time.
func sourceRun(t *testing.T, input []byte, read int, cfg Config) pumpRun {
	t.Helper()
	var run pumpRun
	cfg.OnError = func(e error) { run.errs = append(run.errs, e.Error()) }
	src, err := FromReader(&chunkReader{data: input, n: read}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dst sink
	if err := src.Run(context.Background(), &dst); err != nil {
		t.Fatal(err)
	}
	run.batches, run.stats = dst.batches, src.Stats()
	return run
}

// sysmonLine renders one Sysmon/ECS network-connect line.
func sysmonLine(sec int, host, exe string, pid int, dst string) string {
	return fmt.Sprintf(`{"@timestamp":"2020-02-27T09:%02d:%02dZ","host":{"name":%q},"winlog":{"event_id":3},"process":{"pid":%d,"name":%q},"source":{"ip":"10.0.0.5","port":49233},"destination":{"ip":%q,"port":443},"network":{"transport":"tcp","bytes":900}}`,
		sec/60%60, sec%60, host, pid, exe, dst)
}

// pumpInput is a stream of one format with everything the line pump
// handles: decodable lines with local disorder and stragglers, malformed,
// empty and CRLF-terminated lines, an over-long line, and an unterminated
// last line. Its distinct interned values stay well under the intern
// table's bound.
func pumpInput(format string) []byte {
	var in strings.Builder
	line := func(i int) string {
		ts := 1000 + i
		if i%7 == 0 {
			ts -= 3
		}
		if i%500 == 499 {
			ts -= 400
		}
		exe, host := fmt.Sprintf("exe%d", i%13), fmt.Sprintf("h%d", i%5)
		if format == "sysmon" {
			return sysmonLine(ts, host, exe, i, fmt.Sprintf("172.16.0.%d", i%17))
		}
		return strings.Replace(ndLine(float64(ts), exe, i, fmt.Sprintf("/data/file-%d", i)), `"agent":"h1"`, fmt.Sprintf(`"agent":%q`, host), 1)
	}
	for i := 0; i < 3000; i++ {
		switch {
		case i == 1500:
			in.WriteString(strings.Repeat("x", maxLineBytes+100) + "\n")
		case i%97 == 0:
			in.WriteString("not json\n")
		case i%89 == 0:
			in.WriteString("\n")
		case i%31 == 0:
			in.WriteString(line(i) + "\r\n")
		default:
			in.WriteString(line(i) + "\n")
		}
	}
	in.WriteString(line(3000)) // no trailing newline
	return []byte(in.String())
}

// TestPumpMatchesSequential: the decode pool submits what the one-goroutine
// pump did — the same batches of the same events in the same order, every
// Stats field equal (symbol counters included) and the same OnError
// sequence — at any read size and any worker count.
func TestPumpMatchesSequential(t *testing.T) {
	for _, format := range []string{"ndjson", "sysmon"} {
		input := pumpInput(format)
		cfg := Config{Format: format, Agent: "default-host", BatchSize: 64}
		for _, read := range []int{1, 100, 64 * 1024} {
			want := refRun(t, input, read, cfg)
			if want.stats.Reordered == 0 || want.stats.Late == 0 || want.stats.DecodeErrors < 3 || want.stats.SymbolHits == 0 || len(want.batches) < 10 {
				t.Fatalf("%s: input exercises too little: %+v, %d batches", format, want.stats, len(want.batches))
			}
			for _, procs := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/read=%d/procs=%d", format, read, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					got := sourceRun(t, input, read, cfg)
					if got.stats != want.stats {
						t.Errorf("stats %+v, want %+v", got.stats, want.stats)
					}
					if !reflect.DeepEqual(got.errs, want.errs) {
						t.Errorf("OnError saw %q, want %q", got.errs, want.errs)
					}
					if !reflect.DeepEqual(got.batches, want.batches) {
						t.Errorf("submitted batches differ from the sequential pump's (%d vs %d batches)", len(got.batches), len(want.batches))
					}
				})
			}
		}
	}
}

// endless is a reader that never ends: the same ndjson lines over and over.
type endless struct{ off int }

func (r *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = endlessData[(r.off+i)%len(endlessData)]
	}
	r.off += len(p)
	return len(p), nil
}

var endlessData = func() string {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		b.WriteString(ndLine(float64(1000+i), "a", i, "/f") + "\n")
	}
	return b.String()
}()

// TestSourceDecodePoolNoLeak: no goroutine of the decode pool outlives Run,
// whichever way Run ends.
func TestSourceDecodePoolNoLeak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	lines := pumpInput("ndjson")

	t.Run("eof", func(t *testing.T) {
		leakcheck.Check(t)
		src, err := FromReader(bytes.NewReader(lines), Config{Format: "ndjson"})
		if err != nil {
			t.Fatal(err)
		}
		var dst sink
		if err := src.Run(context.Background(), &dst); err != nil {
			t.Fatalf("Run = %v", err)
		}
	})

	t.Run("cancel mid-stream", func(t *testing.T) {
		leakcheck.Check(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src, err := FromReader(&endless{}, Config{Format: "ndjson", BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		dst := submitFn(func([]*event.Event) error {
			if n++; n == 5 {
				cancel()
			}
			return nil
		})
		if err := src.Run(ctx, dst); !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	})

	t.Run("submit error", func(t *testing.T) {
		leakcheck.Check(t)
		boom := errors.New("engine closed")
		src, err := FromReader(&endless{}, Config{Format: "ndjson", BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		dst := submitFn(func([]*event.Event) error {
			if n++; n > 3 {
				return boom
			}
			return nil
		})
		if err := src.Run(context.Background(), dst); !errors.Is(err, boom) {
			t.Fatalf("Run = %v, want the submitter's error", err)
		}
		if n != 4 {
			t.Fatalf("submitter called %d times, want 4: nothing is submitted after a failure", n)
		}
	})

	t.Run("submit error over an idle pipe", func(t *testing.T) {
		leakcheck.Check(t)
		boom := errors.New("engine closed")
		pr, pw := io.Pipe()
		src, err := FromReader(pr, Config{Format: "ndjson", BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		failed := make(chan struct{})
		n := 0
		dst := submitFn(func([]*event.Event) error {
			if n++; n == 4 {
				close(failed)
			}
			if n > 3 {
				return boom
			}
			return nil
		})
		// The writer stops writing once the submitter has failed, and the
		// pipe stays open: the reader is left in a Read that nothing ends.
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			for {
				select {
				case <-failed:
					return
				default:
				}
				if _, err := pw.Write([]byte(endlessData)); err != nil {
					return
				}
			}
		}()
		done := make(chan error, 1)
		go func() { done <- src.Run(context.Background(), dst) }()
		<-failed
		// Ending the pending Read — here by closing the pipe — lets Run
		// return the submitter's error.
		pw.Close()
		if err := <-done; !errors.Is(err, boom) {
			t.Fatalf("Run = %v, want the submitter's error", err)
		}
		<-wrote
	})

	t.Run("follow cancel", func(t *testing.T) {
		leakcheck.Check(t)
		path := filepath.Join(t.TempDir(), "events.ndjson")
		if err := os.WriteFile(path, lines, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := FromFile(path, Config{Format: "ndjson", Follow: true})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var dst sink
		done := make(chan error, 1)
		go func() { done <- src.Run(ctx, &dst) }()
		// Every whole line is in once the EOF flush has run; the
		// unterminated last one is held back.
		waitFor(t, func() bool { return src.Stats().Lines == 3000 && len(dst.events()) > 0 }, "the file's lines")
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	})

	t.Run("tcp closed mid-line", func(t *testing.T) {
		leakcheck.Check(t)
		src, err := Listen("127.0.0.1:0", Config{Format: "ndjson"})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var dst sink
		done := make(chan error, 1)
		go func() { done <- src.Run(ctx, &dst) }()
		conn, err := net.Dial("tcp", src.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		// A hundred whole lines, then part of one: the sender goes away
		// mid-line, and that line is decoded at the connection's EOF.
		if _, err := conn.Write([]byte(endlessData + endlessData[:50])); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		waitFor(t, func() bool { st := src.Stats(); return st.Lines == 101 && st.DecodeErrors == 1 }, "the connection's lines")
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	})
}
