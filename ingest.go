package saql

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"saql/internal/codec"
	"saql/internal/scheduler"
	"saql/internal/source"
)

// This file is the public face of the ingestion layer. Every event stream
// enters through a Source: raw monitoring logs (auditd, Sysmon/ECS JSON,
// native NDJSON) decoded from a file, reader or TCP listener, or events a
// producer already holds (a store replay, a simulation), with time-ordered
// batching and per-source accounting either way. See docs/architecture.md,
// "Ingestion pipeline".

// SourceStats are per-source ingestion counters (lines read, events
// decoded, lines skipped by the engine's prefilter, decode errors,
// reordering/drop accounting, batches submitted).
type SourceStats = source.Stats

// Source streams one input — a log file, an io.Reader, a TCP listener, or
// an event producer — into a Submitter. Create one with NewSource,
// OpenLogFile, ListenTCP, NewEventSource or NewReplaySource; drive it with
// Run.
type Source struct {
	inner *source.Source
	ran   atomic.Bool // Run is one-shot: attach/detach must pair exactly once
}

// Submitter is what a Source runs into: *Engine, or anything else that
// accepts time-ordered event batches.
type Submitter = source.Submitter

// Producer generates the events of a NewEventSource: it calls emit once per
// event, in stream order, stops at the first error emit returns (emit fails
// once the run's context is cancelled) and returns it.
type Producer = source.Producer

// SourceOption configures a Source.
type SourceOption func(*source.Config)

// WithFormat selects the log format by codec name: "auditd", "sysmon", or
// "ndjson" (the default). Formats lists what is available. Event sources
// decode nothing and ignore it.
func WithFormat(name string) SourceOption {
	return func(c *source.Config) { c.Format = name }
}

// WithSourceAgent sets the AgentID stamped on events whose log format (or
// individual line) carries no host field.
func WithSourceAgent(agent string) SourceOption {
	return func(c *source.Config) { c.Agent = agent }
}

// WithBatchSize sets the SubmitBatch size (default 256). The batch is also
// the reordering window: events are time-sorted within it before submission.
func WithBatchSize(n int) SourceOption {
	return func(c *source.Config) { c.BatchSize = n }
}

// WithFollow keeps a file source alive at end of file, polling for appended
// data like tail -f, until its Run context is cancelled. Other source kinds
// ignore it.
func WithFollow() SourceOption {
	return func(c *source.Config) { c.Follow = true }
}

// WithSourceTenant attributes the source's events to the named tenant, so
// the tenant's ingest-rate quota (TenantQuotas.IngestRate) applies to them
// and they count into its TenantStats. An empty name means DefaultTenant.
func WithSourceTenant(tenant string) SourceOption {
	return func(c *source.Config) { c.Tenant = tenant }
}

// WithStrictOrder drops events that arrive too late to be reordered into
// place (older than the submission watermark) instead of submitting them
// out of order. Drops are counted in SourceStats.Dropped.
func WithStrictOrder() SourceOption {
	return func(c *source.Config) { c.StrictOrder = true }
}

// WithDecodeErrorHandler observes every per-line decode error. Decode
// errors never stop a source; they are counted in SourceStats.DecodeErrors
// and the offending line is skipped.
func WithDecodeErrorHandler(fn func(error)) SourceOption {
	return func(c *source.Config) { c.OnError = fn }
}

// Formats lists the registered log format names.
func Formats() []string { return codec.Formats() }

func sourceConfig(opts []SourceOption) source.Config {
	cfg := source.Config{Format: "ndjson"}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// NewSource builds a source over an arbitrary byte stream, e.g. os.Stdin or
// a decompressing reader. Run ends when the reader reports EOF.
func NewSource(r io.Reader, opts ...SourceOption) (*Source, error) {
	s, err := source.FromReader(r, sourceConfig(opts))
	if err != nil {
		return nil, err
	}
	return &Source{inner: s}, nil
}

// OpenLogFile builds a source over a log file ("-" means standard input).
// With WithFollow the source keeps tailing the file for appended records
// until its Run context is cancelled; otherwise Run ends at EOF.
func OpenLogFile(path string, opts ...SourceOption) (*Source, error) {
	s, err := source.FromFile(path, sourceConfig(opts))
	if err != nil {
		return nil, err
	}
	return &Source{inner: s}, nil
}

// ListenTCP builds a source that accepts TCP connections on addr (e.g.
// ":6514", or ":0" to pick a free port — see Addr) and decodes each
// connection as an independent stream of the configured format. Run serves
// until its context is cancelled.
func ListenTCP(addr string, opts ...SourceOption) (*Source, error) {
	s, err := source.Listen(addr, sourceConfig(opts))
	if err != nil {
		return nil, err
	}
	return &Source{inner: s}, nil
}

// NewEventSource builds a source over events that already exist: produce
// calls emit once per event and returns when the stream ends (see Producer).
// The events are batched, time-sorted within a batch, metered and counted
// exactly like decoded log lines; a partial batch never waits longer than
// the flush interval, so a producer may pace itself. name is what String
// reports.
func NewEventSource(name string, produce Producer, opts ...SourceOption) *Source {
	return &Source{inner: source.FromProducer(name, produce, sourceConfig(opts))}
}

// NewReplaySource builds a source that replays rep's store — the selected
// hosts and time range at the selected speed — as a live stream.
func NewReplaySource(rep *Replayer, sel ReplayOptions, opts ...SourceOption) *Source {
	return NewEventSource("replay", func(ctx context.Context, emit func(*Event) error) error {
		_, err := rep.Replay(ctx, sel, emit)
		return err
	}, opts...)
}

// Run streams the source into dst until the input is exhausted or ctx is
// cancelled. Run is one-shot: a second call fails. It returns nil on a clean
// end of input, ctx.Err() on cancellation, and the first submission or I/O
// error otherwise.
//
// An *Engine destination must be running (Start), since sources ingest
// through SubmitBatch. The source registers itself with the engine for the
// duration of the run, so its counters aggregate into Stats; when Run
// returns the source is detached and its final counters are folded into the
// engine's cumulative totals, so they survive the detach. The tenant a
// source names (WithSourceTenant) is metered against that engine's quotas.
// Any other Submitter — a cluster coordinator, a serial adapter — just
// receives the batches.
//
// Into an *Engine, an "ndjson" source skips the lines no registered query
// can match: each is scanned and checked, so decode errors are the same, but
// no event is built for it, and the engine counts it as an event that hit
// nothing (SourceStats.Skipped). A source that names a tenant, a journaled
// engine, and the "auditd" and "sysmon" formats build every line.
func (s *Source) Run(ctx context.Context, dst Submitter) error {
	eng, _ := dst.(*Engine)
	if eng != nil {
		if _, err := eng.running(); err != nil {
			return err
		}
	}
	if !s.ran.CompareAndSwap(false, true) {
		return fmt.Errorf("saql: source already run (sources are one-shot)")
	}
	if eng != nil {
		eng.attachSource(s.inner)
		defer eng.detachSource(s.inner)
		if ten := s.inner.Tenant(); ten != "" {
			// The ingest-rate meter needs every line's time, in order.
			dst = &tenantSubmitter{eng: eng, tenant: ten}
		} else {
			dst = engineSubmitter{eng: eng}
		}
	}
	return s.inner.Run(ctx, dst)
}

// tenantSubmitter applies the owning tenant's ingest-rate quota in front of
// SubmitBatch: over-rate events are dropped (and counted in
// TenantStats.EventsThrottled) before they reach the engine.
type tenantSubmitter struct {
	eng    *Engine
	tenant string
}

func (t *tenantSubmitter) SubmitBatch(evs []*Event) error {
	kept := t.eng.admitEvents(t.tenant, evs)
	if len(kept) == 0 {
		return nil
	}
	return t.eng.SubmitBatch(kept)
}

// engineSubmitter is how a source without a tenant runs into an engine: its
// decoders consult the runtime's prefilter table (runtime.Prefilter) and its
// batches carry the lines they skipped as a count (runtime.SubmitSkipping).
type engineSubmitter struct{ eng *Engine }

func (s engineSubmitter) SubmitBatch(evs []*Event) error { return s.eng.SubmitBatch(evs) }

func (s engineSubmitter) Prefilter() (codec.Prefilter, uint64) {
	t, gen := s.eng.rt.Load().Prefilter()
	if s.eng.testAdmitAll {
		return scheduler.AdmitAll(), gen
	}
	return t, gen
}

func (s engineSubmitter) SubmitSkipping(evs []*Event, skipped int64, last time.Time, gen uint64) (bool, error) {
	if s.eng.testBeforeSkipping != nil {
		s.eng.testBeforeSkipping()
	}
	rt, err := s.eng.running()
	if err != nil {
		return false, err
	}
	return rt.SubmitSkipping(evs, skipped, last, gen)
}

// Stats snapshots the source's counters; safe while Run is in flight.
func (s *Source) Stats() SourceStats { return s.inner.Stats() }

// String names the source for logs: its kind and file, address or name.
func (s *Source) String() string { return s.inner.String() }

// Addr reports the bound listener address of a ListenTCP source and nil for
// other source kinds.
func (s *Source) Addr() net.Addr { return s.inner.Addr() }
