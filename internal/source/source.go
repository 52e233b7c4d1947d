// Package source is the one way an event stream enters the engine. A Source
// reads lines from a file (optionally following appends, tail -f style), an
// arbitrary io.Reader (stdin), or a TCP listener and decodes them with an
// internal/codec Decoder — or takes ready-made events from a Producer (a
// store replay, a simulation) — and submits them to a Submitter (the
// engine's SubmitBatch) in time-ordered batches.
//
// # Ordering
//
// Real logs are only approximately time-ordered: auditd serializes records
// from many CPUs, and a TCP source merges streams from many senders. Every
// batch is therefore sorted by event time before submission (stable, so
// equal-timestamp events keep arrival order), which gives bounded reordering
// with the batch as the window. Across batches a watermark tracks the
// maximum submitted time; an event older than the watermark can no longer be
// reordered into place, so it is either submitted late anyway (default) or
// dropped when Config.StrictOrder is set. Both outcomes are counted.
//
// # Accounting
//
// A Source keeps per-source counters (lines read, events decoded, decode
// errors, reordered/late/dropped events, batches submitted) retrievable with
// Stats at any time, including while Run is in flight.
package source

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"saql/internal/codec"
	"saql/internal/event"
)

// maxLineBytes bounds one log line (auditd EXECVE records hex-encode whole
// command lines, so lines run long; beyond this is counted as a decode
// error and skipped).
const maxLineBytes = 1 << 20

// Submitter accepts decoded event batches; *saql.Engine satisfies it.
type Submitter interface {
	SubmitBatch(evs []*event.Event) error
}

// Producer generates a source's events itself instead of decoding them from
// lines: it calls emit once per event, in the order the events should enter
// the batcher, stops at the first error emit returns (emit fails once ctx is
// cancelled) and returns it.
type Producer func(ctx context.Context, emit func(*event.Event) error) error

// Config configures a Source.
type Config struct {
	// Format names the internal/codec decoder ("auditd", "sysmon",
	// "ndjson"). Required by every source that decodes lines.
	Format string
	// Agent is the default AgentID for formats/lines without a host field.
	Agent string
	// BatchSize is the submission batch size (default 256). Each batch is
	// also the reordering window: events are sorted by time within it.
	BatchSize int
	// FlushInterval bounds how long a partial batch may sit before being
	// submitted when the input is live (follow mode, TCP, producers).
	// Default 200ms.
	FlushInterval time.Duration
	// StrictOrder drops events older than the submission watermark instead
	// of submitting them late (counted either way in Stats).
	StrictOrder bool
	// Follow keeps a file source alive at EOF, polling for appended data
	// (tail -f). Ignored by reader and TCP sources.
	Follow bool
	// OnError, when set, observes every per-line decode error. Decode
	// errors never stop the source; they are counted and skipped.
	OnError func(error)
	// Tenant attributes this source's events to one tenant for quota
	// accounting (saql.Engine ingest-rate budgets). Empty means the default
	// tenant. The source itself does not interpret the value.
	Tenant string
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 200 * time.Millisecond
	}
	return c
}

// Stats are the per-source counters. All fields are cumulative.
type Stats struct {
	Lines        int64 // raw lines consumed (including undecodable ones)
	Events       int64 // events decoded and handed to the batcher
	DecodeErrors int64 // lines the codec rejected
	Reordered    int64 // events moved by the in-batch time sort
	Late         int64 // events older than the watermark, submitted anyway
	Dropped      int64 // events older than the watermark, dropped (StrictOrder)
	Batches      int64 // batches submitted to the engine
	// Symbol interning, scoped to this source's decoder (not the
	// process-global dictionary).
	SymbolHits    int64 // intern-table lookups served from the local table
	SymbolMisses  int64 // first-sight values (global dictionary consulted)
	SymbolEntries int64 // distinct values cached by this source's decoder
}

// Add folds o's counters into s, field by field. Engines use it to keep
// cumulative totals across detached (finished) sources.
func (s *Stats) Add(o Stats) {
	s.Lines += o.Lines
	s.Events += o.Events
	s.DecodeErrors += o.DecodeErrors
	s.Reordered += o.Reordered
	s.Late += o.Late
	s.Dropped += o.Dropped
	s.Batches += o.Batches
	s.SymbolHits += o.SymbolHits
	s.SymbolMisses += o.SymbolMisses
	s.SymbolEntries += o.SymbolEntries
}

// counters is the atomic backing store for Stats.
type counters struct {
	lines, events, decodeErrors atomic.Int64
	reordered, late, dropped    atomic.Int64
	batches                     atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Lines:        c.lines.Load(),
		Events:       c.events.Load(),
		DecodeErrors: c.decodeErrors.Load(),
		Reordered:    c.reordered.Load(),
		Late:         c.late.Load(),
		Dropped:      c.dropped.Load(),
		Batches:      c.batches.Load(),
	}
}

// Source drives one input (reader, file, TCP listener, or producer) into a
// Submitter. Run may be called once; Stats is safe from any goroutine at any
// time.
type Source struct {
	cfg  Config
	ctr  counters
	sym  codec.InternStats // decoder intern-table counters for this source
	run  func(ctx context.Context, b *batcher) error
	desc string
	addr net.Addr // bound address for TCP sources
	// live marks an input whose events arrive on their own schedule (TCP
	// senders, a paced producer): Run then also flushes partial batches every
	// FlushInterval, so a due event never waits for its batch to fill.
	live bool

	started atomic.Bool
}

// Stats returns a snapshot of the source's counters.
func (s *Source) Stats() Stats {
	out := s.ctr.snapshot()
	out.SymbolHits = s.sym.Hits.Load()
	out.SymbolMisses = s.sym.Misses.Load()
	out.SymbolEntries = s.sym.Entries.Load()
	return out
}

// Tenant reports the tenant this source's events are attributed to ("" for
// the default tenant).
func (s *Source) Tenant() string { return s.cfg.Tenant }

// String describes the source for logs and errors.
func (s *Source) String() string { return s.desc }

// Run consumes the input until it is exhausted (or, for follow/TCP sources,
// until ctx is cancelled), submitting decoded events to dst. It returns nil
// on a clean end of input, ctx.Err() on cancellation, and the first
// submission or I/O error otherwise. Decode errors are counted, reported to
// Config.OnError, and skipped.
func (s *Source) Run(ctx context.Context, dst Submitter) error {
	if s.started.Swap(true) {
		return fmt.Errorf("source: %s already running", s.desc)
	}
	b := &batcher{cfg: s.cfg, ctr: &s.ctr, dst: dst}
	if s.live {
		defer b.flushEvery(s.cfg.FlushInterval)()
	}
	err := s.run(ctx, b)
	if ferr := b.flush(); err == nil {
		err = ferr
	}
	return err
}

// newDecoder builds the configured codec decoder, wiring its intern-table
// counters to this source.
func (s *Source) newDecoder() (codec.Decoder, error) {
	if s.cfg.Format == "" {
		return nil, fmt.Errorf("source: no format configured")
	}
	return codec.New(s.cfg.Format, codec.Options{DefaultAgent: s.cfg.Agent, Intern: &s.sym})
}

// ---------------------------------------------------------------------------
// Batcher: time-ordered batching with a submission watermark
// ---------------------------------------------------------------------------

// batcher accumulates decoded events and submits sorted batches. It is
// locked because TCP sources feed it from one goroutine per connection.
//
// Ownership: the engine keeps a submitted batch on its ingest queue and
// consumes it asynchronously, so a slice handed to dst.SubmitBatch is never
// touched again — the pending buffer is re-sliced past it (full batches) or
// dropped entirely (flush), never rewound over it.
type batcher struct {
	cfg Config
	ctr *counters
	dst Submitter

	mu        sync.Mutex
	pending   []*event.Event
	watermark time.Time
	err       error // first submission error; every later submit returns it
}

// add folds decoded events in, submitting full batches as they form.
func (b *batcher) add(evs []*event.Event) error {
	if len(evs) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ctr.events.Add(int64(len(evs)))
	b.pending = append(b.pending, evs...)
	for len(b.pending) >= b.cfg.BatchSize {
		// The full cap limits keep later appends to b.pending out of the
		// submitted batch's backing array.
		batch := b.pending[:b.cfg.BatchSize:b.cfg.BatchSize]
		b.pending = b.pending[b.cfg.BatchSize:]
		if err := b.submit(batch); err != nil {
			return err
		}
	}
	return nil
}

// flush submits whatever is pending (partial batch).
func (b *batcher) flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pending) == 0 {
		return b.err
	}
	batch := b.pending
	b.pending = nil
	return b.submit(batch)
}

// flushEvery flushes partial batches on a wall-clock cadence until the
// returned stop function is called (which waits for the flusher to exit). A
// failed flush surfaces through the next add or flush.
func (b *batcher) flushEvery(d time.Duration) (stop func()) {
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(d) //saql:wallclock batch-flush latency bound, not stream time
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
				_ = b.flush() // kept in b.err
			}
		}
	}()
	return func() { close(quit); <-exited }
}

// submit time-sorts one batch, applies the watermark policy, and hands the
// result to the Submitter. Caller holds b.mu.
func (b *batcher) submit(batch []*event.Event) error {
	if b.err != nil {
		return b.err
	}
	if !sort.SliceIsSorted(batch, func(i, j int) bool { return batch[i].Time.Before(batch[j].Time) }) {
		before := make([]*event.Event, len(batch))
		copy(before, batch)
		sort.SliceStable(batch, func(i, j int) bool { return batch[i].Time.Before(batch[j].Time) })
		moved := int64(0)
		for i := range batch {
			if batch[i] != before[i] {
				moved++
			}
		}
		b.ctr.reordered.Add(moved)
	}
	if !b.watermark.IsZero() {
		late := 0
		for late < len(batch) && batch[late].Time.Before(b.watermark) {
			late++
		}
		if late > 0 {
			if b.cfg.StrictOrder {
				b.ctr.dropped.Add(int64(late))
				batch = batch[late:]
			} else {
				b.ctr.late.Add(int64(late))
			}
		}
	}
	if len(batch) == 0 {
		return nil
	}
	if last := batch[len(batch)-1].Time; last.After(b.watermark) {
		b.watermark = last
	}
	b.ctr.batches.Add(1)
	b.err = b.dst.SubmitBatch(batch)
	return b.err
}

// ---------------------------------------------------------------------------
// Line pump: one decoder over one byte stream
// ---------------------------------------------------------------------------

// lineFeeder splits a byte stream into lines, decodes them, and feeds the
// batcher one read page at a time: the events of every line a page completes
// reach the batcher in a single add. A line longer than maxLineBytes is
// discarded (counted as one decode error) rather than terminating the
// source, honouring the contract that bad input never stops ingestion.
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
	// Decode's slice is only good until the next call; the events are ours.
	lf.evs = append(lf.evs, evs...)
}

var errLineTooLong = fmt.Errorf("source: line exceeds %d bytes, discarded", maxLineBytes)

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
	clear(lf.evs) // the batcher copied them; do not pin them until the next page
	lf.evs, lf.lines = lf.evs[:0], 0
	return err
}

// feed consumes one page of raw bytes, emitting every line it completes.
// Lines are decoded where they sit in the page; only a line that straddles
// pages is assembled in tail.
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
			lf.discardTo = false // the over-long line this ends is already counted
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

// pump reads r line by line through dec into b until EOF or ctx is done.
func pump(ctx context.Context, r io.Reader, dec codec.Decoder, b *batcher, ctr *counters, onErr func(error)) error {
	lf := &lineFeeder{dec: dec, b: b, ctr: ctr, onErr: onErr}
	page := make([]byte, 64*1024)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
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

// drain flushes the decoder's buffered state (end of one stream).
func drain(dec codec.Decoder, b *batcher) error {
	return b.add(dec.Flush())
}

// ---------------------------------------------------------------------------
// Reader source
// ---------------------------------------------------------------------------

// FromReader builds a source over an arbitrary byte stream (e.g. stdin).
// Run ends when the reader reports EOF.
func FromReader(r io.Reader, cfg Config) (*Source, error) {
	cfg = cfg.withDefaults()
	s := &Source{cfg: cfg, desc: "reader:" + cfg.Format}
	dec, err := s.newDecoder()
	if err != nil {
		return nil, err
	}
	s.run = func(ctx context.Context, b *batcher) error {
		if err := pump(ctx, r, dec, b, &s.ctr, cfg.OnError); err != nil {
			return err
		}
		return drain(dec, b)
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Producer source
// ---------------------------------------------------------------------------

// FromProducer builds a source over events that already exist — a store
// replay, a simulation — named desc in logs. They take the same path as
// decoded lines: batching, the in-batch time sort, the watermark policy and
// the counters (Stats.Lines and the symbol counters stay zero; cfg.Format is
// not used). Run ends when produce returns.
func FromProducer(desc string, produce Producer, cfg Config) *Source {
	s := &Source{cfg: cfg.withDefaults(), desc: desc, live: true}
	s.run = func(ctx context.Context, b *batcher) error {
		return produce(ctx, func(ev *event.Event) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return b.add([]*event.Event{ev})
		})
	}
	return s
}
