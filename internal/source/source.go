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
// Decoding does not reorder anything. A line-decoding source reads its
// stream on one goroutine and cuts it into chunks of whole lines; a decode
// pool — one worker per core for a format whose lines decode independently
// (codec.LineLocal: ndjson, sysmon), one for auditd and for each TCP
// connection, each worker with its own decoder — decodes the chunks; and one in-order stage takes them back in
// the order they were read and hands each chunk's events to the batcher. So
// the batcher sees the events in line order, and every batch is what one
// decoder reading line by line would have produced, whatever the worker
// count and however the reads cut the stream.
//
// Into a destination that prefilters (package saql's adapter for a running
// engine), a decoder that can skip lines (codec.Skipper) builds no event for
// a line the destination's current table does not admit. The line enters the
// batcher as a skip record — its time, its bytes and the table's generation
// — which takes part in batching, the sort, the late/drop policy and the
// watermark exactly as its event would, so batch boundaries and those
// counters do not change. A batch goes out as its built events plus the
// count and latest time of its skipped lines; if a registry change has
// replaced the table since they were skipped, the batch is built in full and
// submitted as events.
//
// # Accounting
//
// A Source keeps per-source counters (lines read, events decoded, lines
// skipped, decode errors, reordered/late/dropped events, batches submitted)
// retrievable with Stats at any time, including while Run is in flight.
package source

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
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

// skipSubmitter is a Submitter that lets a source skip the lines no query it
// feeds can match: package saql's adapter for a running engine. Prefilter is
// the current table of those queries and its generation; SubmitSkipping
// takes a batch as the events built, the count of the lines skipped under
// the table of generation gen, and the batch's latest time, or reports the
// generation stale and takes nothing.
type skipSubmitter interface {
	Submitter
	Prefilter() (codec.Prefilter, uint64)
	SubmitSkipping(evs []*event.Event, skipped int64, last time.Time, gen uint64) (stale bool, err error)
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
	// OnError, when set, observes every per-line decode error, a stream's
	// in line order and from one goroutine at a time per stream. Decode
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
	Events       int64 // events decoded and handed to the batcher, Skipped included
	DecodeErrors int64 // lines the codec rejected
	Reordered    int64 // events moved by the in-batch time sort
	Late         int64 // events older than the watermark, submitted anyway
	Dropped      int64 // events older than the watermark, dropped (StrictOrder)
	Batches      int64 // batches submitted to the engine
	// Skipped counts the lines decoded but never built: the engine's
	// prefilter found that no registered query could match them. They are in
	// Events too, since the engine counts them as events that hit nothing.
	Skipped int64
	// Symbol interning, scoped to this source's intern tables (not the
	// process-global dictionary): one per stream, which all the stream's
	// decode workers share. Below a table's bound the three are the same
	// for any number of decode workers.
	SymbolHits    int64 // intern-table lookups served from a stream's table
	SymbolMisses  int64 // first-sight values (global dictionary consulted)
	SymbolEntries int64 // distinct values cached by this source's tables
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
	s.Skipped += o.Skipped
	s.SymbolHits += o.SymbolHits
	s.SymbolMisses += o.SymbolMisses
	s.SymbolEntries += o.SymbolEntries
}

// counters is the atomic backing store for Stats.
type counters struct {
	lines, events, decodeErrors atomic.Int64
	reordered, late, dropped    atomic.Int64
	batches, skipped            atomic.Int64
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
		Skipped:      c.skipped.Load(),
	}
}

// Source drives one input (reader, file, TCP listener, or producer) into a
// Submitter. Run may be called once; Stats is safe from any goroutine at any
// time.
type Source struct {
	cfg  Config
	ctr  counters
	sym  codec.InternStats // symbol counters of all this source's decoders
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
// Config.OnError, and skipped. Cancellation, and with several decode
// workers a submission error too, reach the reader between reads: over a
// reader that blocks with no input (an idle pipe), Run returns once the
// pending Read does.
func (s *Source) Run(ctx context.Context, dst Submitter) error {
	if s.started.Swap(true) {
		return fmt.Errorf("source: %s already running", s.desc)
	}
	b := &batcher{cfg: s.cfg, ctr: &s.ctr, dst: dst, sym: &s.sym}
	b.skip, _ = dst.(skipSubmitter)
	if s.live {
		defer b.flushEvery(s.cfg.FlushInterval)()
	}
	err := s.run(ctx, b)
	if ferr := b.flush(); err == nil {
		err = ferr
	}
	return err
}

// decodeWorkers sizes the decode pool of a file or reader stream: one worker
// per core for a format whose lines decode independently, one otherwise.
func (s *Source) decodeWorkers() int {
	if codec.LineLocal(s.cfg.Format) {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// newDecoders builds the n decoders of one stream's decode pool, sharing one
// intern table.
func (s *Source) newDecoders(n int) ([]codec.Decoder, error) {
	if s.cfg.Format == "" {
		return nil, fmt.Errorf("source: no format configured")
	}
	opts := codec.Options{DefaultAgent: s.cfg.Agent, Intern: &s.sym, Table: new(codec.InternTable)}
	decs := make([]codec.Decoder, n)
	for i := range decs {
		dec, err := codec.New(s.cfg.Format, opts)
		if err != nil {
			return nil, err
		}
		decs[i] = dec
	}
	return decs, nil
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
//
// Skip records: into a destination that prefilters (skipSubmitter), a line
// the decoder skipped enters pending as a stand-in event — the batcher's own,
// holding the line's time, the line and the table generation it was skipped
// under — so it counts toward the batch size and is sorted, judged late and
// moves the watermark exactly as its event would. A batch holding stand-ins
// goes out as its other events, collected in kept (re-sliced past each
// submitted batch, as pending is), and the stand-ins' count; they return to
// free once it is submitted.
type batcher struct {
	cfg Config
	ctr *counters
	dst Submitter

	skip skipSubmitter      // dst when it prefilters; nil otherwise
	sym  *codec.InternStats // the source's symbol counters, for full

	mu        sync.Mutex
	pending   []*event.Event
	before    []*event.Event // an unsorted batch's arrival order, to count Reordered
	watermark time.Time
	err       error // first submission error; every later submit returns it

	recs []*skipRec     // every stand-in made, by index (its event's ID)
	free []*skipRec     // the stand-ins not in pending
	kept []*event.Event // the built events of the batches with stand-ins
	// full builds the skipped lines of a batch whose table went stale; made
	// at the first such batch.
	full codec.Decoder
}

// skipRec is a skip record: ev stands for the line in pending.
type skipRec struct {
	ev   event.Event // Time: the line's event time; ID: the record's index in batcher.recs
	line []byte
	gen  uint64
}

// keptBatches is how many batches' worth of built events one kept buffer
// holds before the next is made.
const keptBatches = 8

// record returns the skip record ev stands for, nil when ev is an event.
//
//saql:hotpath
func (b *batcher) record(ev *event.Event) *skipRec {
	if i := ev.ID; i < uint64(len(b.recs)) && &b.recs[i].ev == ev {
		return b.recs[i]
	}
	return nil
}

// standIn takes a free skip record for the line sl, skipped under the table
// of generation gen, and returns its stand-in event. Caller holds b.mu.
//
//saql:hotpath
func (b *batcher) standIn(sl skipLine, gen uint64) *event.Event {
	var r *skipRec
	if n := len(b.free); n > 0 {
		r, b.free = b.free[n-1], b.free[:n-1]
	} else {
		r = new(skipRec) //saql:coldpath records are reused: made only while pending grows
		r.ev.ID = uint64(len(b.recs))
		b.recs = append(b.recs, r)
	}
	r.ev.Time, r.line, r.gen = sl.t, append(r.line[:0], sl.line...), gen
	return &r.ev
}

// byTime orders events by event time.
func byTime(a, b *event.Event) int { return a.Time.Compare(b.Time) }

// add folds decoded events in, submitting full batches as they form.
func (b *batcher) add(evs []*event.Event) error { return b.addLines(evs, nil, 0) }

// addLines is add for a decoded chunk: a nil among evs stands for the next
// of skips, lines the prefilter of generation gen did not admit.
func (b *batcher) addLines(evs []*event.Event, skips []skipLine, gen uint64) error {
	if len(evs) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ctr.events.Add(int64(len(evs)))
	if len(skips) == 0 {
		b.pending = append(b.pending, evs...)
	} else {
		for _, ev := range evs {
			if ev == nil {
				ev = b.standIn(skips[0], gen)
				skips = skips[1:]
			}
			b.pending = append(b.pending, ev)
		}
	}
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
	if !slices.IsSortedFunc(batch, byTime) {
		b.before = append(b.before[:0], batch...)
		slices.SortStableFunc(batch, byTime)
		moved := int64(0)
		for i := range batch {
			if batch[i] != b.before[i] {
				moved++
			}
		}
		clear(b.before) // do not pin the submitted events
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
				b.release(batch[:late])
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
	if len(b.recs) == 0 { // no line was ever skipped
		b.err = b.dst.SubmitBatch(batch)
	} else {
		b.err = b.submitSkipping(batch)
	}
	return b.err
}

// release returns the skip records batch's stand-ins stand for to the free
// list.
func (b *batcher) release(batch []*event.Event) {
	for _, ev := range batch {
		if r := b.record(ev); r != nil {
			b.free = append(b.free, r)
		}
	}
}

// submitSkipping submits a sorted batch that may hold stand-ins: its built
// events, collected in kept, the stand-ins' count, its latest time and the
// oldest table generation a stand-in was skipped under. If a registry change
// has made that table stale, the skipped lines are built after all and the
// whole batch goes out as events. Either way a line longer than a page is
// then let go, so a few long lines do not pin their size in every record
// for the source's life. Caller holds b.mu.
func (b *batcher) submitSkipping(batch []*event.Event) error {
	if cap(b.kept) < len(batch) {
		b.kept = make([]*event.Event, 0, keptBatches*max(b.cfg.BatchSize, len(batch)))
	}
	kept := b.kept[:0]
	skipped, gen := int64(0), uint64(math.MaxUint64)
	for _, ev := range batch {
		if r := b.record(ev); r != nil {
			skipped++
			gen = min(gen, r.gen)
			b.free = append(b.free, r) // its line stays as it is until the next add
		} else {
			kept = append(kept, ev)
		}
	}
	if skipped == 0 {
		return b.dst.SubmitBatch(batch)
	}
	stale, err := b.skip.SubmitSkipping(kept[:len(kept):len(kept)], skipped, batch[len(batch)-1].Time, gen)
	switch {
	case err != nil:
		return err
	case stale:
		for i, ev := range batch {
			if r := b.record(ev); r != nil {
				if batch[i], err = b.build(r.line); err != nil {
					return err
				}
			}
		}
		err = b.dst.SubmitBatch(batch)
	default:
		b.ctr.skipped.Add(skipped)
		b.kept = b.kept[len(kept):len(kept)]
	}
	for _, r := range b.free[len(b.free)-int(skipped):] { // the batch's records
		if cap(r.line) > pageBytes {
			r.line = nil
		}
	}
	return err
}

// build decodes a skipped line into its event, with a decoder that skips
// nothing.
func (b *batcher) build(line []byte) (*event.Event, error) {
	if b.full == nil {
		var err error
		if b.full, err = codec.New(b.cfg.Format, codec.Options{DefaultAgent: b.cfg.Agent, Intern: b.sym}); err != nil {
			return nil, err
		}
	}
	evs, err := b.full.Decode(line)
	if err == nil && len(evs) != 1 {
		err = fmt.Errorf("source: a skipped line decodes to %d events", len(evs))
	}
	if err != nil {
		return nil, err
	}
	return evs[0], nil
}

// ---------------------------------------------------------------------------
// Reader source
// ---------------------------------------------------------------------------

// FromReader builds a source over an arbitrary byte stream (e.g. stdin).
// Run ends when the reader reports EOF.
func FromReader(r io.Reader, cfg Config) (*Source, error) {
	cfg = cfg.withDefaults()
	s := &Source{cfg: cfg, desc: "reader:" + cfg.Format}
	decs, err := s.newDecoders(s.decodeWorkers())
	if err != nil {
		return nil, err
	}
	s.run = func(ctx context.Context, b *batcher) error {
		if err := s.pump(ctx, r, decs, b, false); err != nil {
			return err
		}
		return drain(decs, b)
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
