package saql

import (
	"context"
	"errors"
	"fmt"
	"maps"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/parser"
	"saql/internal/runtime"
	"saql/internal/scheduler"
	"saql/internal/sema"
	"saql/internal/source"
	"saql/internal/storage"
)

// Alert is a detection raised by a query (re-exported engine type).
type Alert = engine.Alert

// NamedValue is one returned attribute of an alert.
type NamedValue = engine.NamedValue

// ModelKind classifies queries by anomaly model family.
type ModelKind = engine.ModelKind

// Anomaly model kinds.
const (
	KindRule       = engine.KindRule
	KindTimeSeries = engine.KindTimeSeries
	KindInvariant  = engine.KindInvariant
	KindOutlier    = engine.KindOutlier
	KindStateful   = engine.KindStateful
)

// QueryError is a runtime error attributed to a query.
type QueryError = engine.QueryError

// QueryStats are the per-query runtime counters (see Engine.QueryStats and
// QueryHandle.Stats).
type QueryStats = engine.QueryStats

// AlertSubscription is a push-based alert stream returned by Subscribe.
type AlertSubscription = runtime.AlertSubscription

// OverflowPolicy selects what an alert subscription (Engine.Subscribe,
// QueryHandle.Subscribe) does when its subscriber falls behind. The ingest
// queue has one policy: Submit waits for room.
type OverflowPolicy = runtime.OverflowPolicy

// Overflow policies.
const (
	// Block applies backpressure: the producer waits for capacity.
	Block = runtime.Block
	// DropNewest discards the incoming alert when the subscription's buffer
	// is full, counted by AlertSubscription.Dropped.
	DropNewest = runtime.DropNewest
)

// Placement classifies how a query's state is distributed across shards.
type Placement = engine.Placement

// Shard placements (see doc.go, "Shard placement").
const (
	PlacePinned  = engine.PlacePinned
	PlaceByGroup = engine.PlaceByGroup
	PlaceByEvent = engine.PlaceByEvent
)

// Lifecycle errors.
var (
	// ErrNotRunning is returned by Submit/SubmitBatch before Start.
	ErrNotRunning = errors.New("saql: engine not started")
	// ErrAlreadyRunning is returned by Start on a started engine.
	ErrAlreadyRunning = errors.New("saql: engine already started")
	// ErrClosed is returned by operations on a closed engine.
	ErrClosed = runtime.ErrClosed
)

// Stats summarises engine activity. The sharing counters (StreamCopies,
// NaiveCopies, PatternEvals, NaivePatternEvals, SharingRatio) count only
// active — non-paused — queries, and on a running engine they reflect the
// router's shared evaluation stage: pattern predicates are evaluated once
// per event regardless of the shard count.
type Stats struct {
	Events       int64
	Alerts       int64
	Queries      int
	QueryGroups  int
	StreamCopies int64
	NaiveCopies  int64
	SharingRatio float64
	// PatternEvals counts the pattern predicates of the masters actually run
	// — a master pinned by its global constraints to one agentid runs only
	// on that agentid's events — plus the dependents' re-examinations of
	// master hits; NaivePatternEvals what per-query execution would have
	// performed (every active query's patterns on every event).
	PatternEvals      int64
	NaivePatternEvals int64
	// KeyEvals counts group-by key evaluations performed: one per event per
	// hit pattern for all the queries whose group-by compiles to the same key
	// programs (a key class), at any shard count, in the resolve step of the
	// evaluating scheduler (a never-started engine's, or a running one's
	// router) — plus, for a key that fails, the one re-derivation of its
	// error by the fold that reports it.
	KeyEvals int64
	// GroupProbes counts key class directory probes, each turning a key into
	// the group id every member of the class folds by: one per key that
	// evaluated on a never-started engine, at most one per event per hit
	// pattern per key class per shard on a running one.
	GroupProbes int64
	// Dropped counts the events the engine refused: those its tenants'
	// ingest-rate quotas throttled, summed over tenants
	// (TenantStats.EventsThrottled). It is checkpointed with the tenants, so
	// it survives Open.
	Dropped int64

	// Symbol-dictionary counters (the codec intern tables that stamp stable
	// small-integer symbol IDs on hot string attributes at decode time, so
	// compiled equality predicates compare integers instead of strings).
	// All four are scoped to this engine: Entries/Hits/Misses aggregate the
	// intern tables of sources that fed this engine (live and detached), and
	// Fallbacks counts string comparisons that could not use symbols in this
	// engine's compiled queries. Two engines in one process report disjoint
	// values.
	SymbolEntries   int
	SymbolHits      int64
	SymbolMisses    int64
	SymbolFallbacks int64

	// Ingestion-source counters, aggregated over every Source that has Run
	// against this engine (see NewSource/OpenLogFile/ListenTCP). Sources
	// counts only currently-attached (running) sources; the cumulative
	// counters below keep the contributions of sources that have finished
	// and detached.
	Sources       int   // sources currently attached
	SourceLines   int64 // raw log lines consumed
	SourceEvents  int64 // events decoded and batched, SourceSkipped included
	DecodeErrors  int64 // log lines the codecs rejected
	SourceDropped int64 // out-of-order events dropped by WithStrictOrder
	// SourceSkipped counts the lines decoded but never built, because no
	// registered query could match them (SourceStats.Skipped). Events counts
	// them as accepted events that hit nothing; PatternEvals does not, since
	// no predicate ran on them.
	SourceSkipped int64
}

// Option configures an Engine.
type Option func(*config)

type config struct {
	sharing   bool
	onAlert   func(*Alert)
	onError   func(*QueryError)
	errDepth  int
	shards    int
	queueSize int
	// journal, when set, durably records every ingested event (see
	// WithJournal); baseOffset seeds the stream-offset counter so a
	// restored engine's checkpoints index the same journal coordinates.
	// Open pins baseOffset explicitly (baseOffsetSet); otherwise it is
	// resolved lazily from the journal's existing record count, so a
	// journal left by a run that crashed before its first checkpoint is
	// never re-indexed from zero.
	journal       *storage.Store
	baseOffset    int64
	baseOffsetSet bool
	// ranges, when non-empty, restrict the engine to the owned slices of
	// the ownership hash space (WithKeyRanges; the distributed-worker case).
	ranges []KeyRange
}

// WithSharing toggles the master–dependent-query scheme (default on).
// Disabling it executes every query independently, the configuration used
// as the SAQL-side ablation in the concurrency experiments.
func WithSharing(on bool) Option { return func(c *config) { c.sharing = on } }

// WithAlertHandler installs a callback invoked serially for every alert, in
// addition to alerts flowing to subscriptions (and, on the serial
// reference, being returned from Process). After Start the callback runs on
// runtime goroutines, never concurrently with itself.
func WithAlertHandler(fn func(*Alert)) Option { return func(c *config) { c.onAlert = fn } }

// WithErrorHandler installs a callback invoked for every runtime query
// error. After Start it may be invoked from runtime goroutines. Before Start
// it runs inside the call that raised the error — Process, Flush, a stats
// read — with the scheduler held: from there it may call Errors and
// ErrorCount, not the engine's other methods. An error an aggregation
// argument raises is reported when the slice holding its hit folds: once the
// watermark reaches the query's next window edge, once the slice holds 4,096
// hits, or at a control point (stats, checkpoint, pause, add/remove/swap,
// Flush, Close). Each query reports those errors in the order of its hits.
func WithErrorHandler(fn func(*QueryError)) Option { return func(c *config) { c.onError = fn } }

// WithShards sets how many shard workers Start spins up (default
// GOMAXPROCS). Each worker owns a scheduler shard; see doc.go for the
// query-placement rules.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithIngestQueue bounds the ingest queue (in submissions; default 1024).
// Submit and SubmitBatch wait for room in it.
func WithIngestQueue(size int) Option { return func(c *config) { c.queueSize = size } }

// engineState tracks the lifecycle: New (serial, accepting Process) ->
// Running (concurrent, accepting Submit) -> Closed.
type engineState int32

const (
	stateNew engineState = iota
	stateRunning
	stateClosed
)

// Engine is the SAQL anomaly query engine: it manages concurrent queries
// over the system event stream and reports alerts. Engine is safe for
// concurrent use.
//
// An Engine starts in the serial state, where the synchronous Process /
// Flush methods drive all queries on the caller's goroutine. Calling
// Start moves it to the running state: events enter through the
// non-blocking Submit / SubmitBatch ingestion API, are fanned across shard
// workers, and alerts are delivered through Subscribe streams and the
// WithAlertHandler callback. Close drains, flushes, and ends all
// subscriptions.
type Engine struct {
	cfg      config
	reporter *engine.ErrorReporter
	sched    *scheduler.Scheduler // serial-state scheduler
	fan      *runtime.AlertFanout

	state    atomic.Int32
	rt       atomic.Pointer[runtime.Runtime]
	closedCh chan struct{}

	mu  sync.Mutex // guards reg and state transitions
	reg map[string]*queryRecord

	// handling counts error handler calls in progress (see settleErrors).
	handling atomic.Int32

	srcMu   sync.Mutex // guards ingests and srcTotals
	ingests []*source.Source
	// srcTotals accumulates the final counters of detached (finished)
	// sources, so cumulative line/event/symbol totals survive source churn
	// while Stats.Sources tracks only live attachments.
	srcTotals source.Stats

	// fallbacks receives the string-fallback counts of every query this
	// engine compiles (see compile).
	fallbacks atomic.Int64

	// Tenant control plane (tenant.go): per-tenant quota and accounting
	// state, plus the stream-time high-water mark of alert event times.
	tenMu    sync.Mutex
	tenants  map[string]*tenantState
	alertMax time.Time

	// jmu pins the serial path's journal-append order to its processing
	// order when WithJournal is active (the sharded runtime has its own
	// equivalent lock). It is never taken unless a journal is configured, so
	// journal-less serial Process keeps its lock-free callback guarantees.
	jmu sync.Mutex

	// baseMu guards the one-time resolution of the journal's base offset
	// (see journalBase / pinBaseOffset).
	baseMu       sync.Mutex
	baseResolved bool

	// testAdmitAll and testBeforeSkipping, when set before a source runs
	// into the engine, are seen by its prefilter adapter (engineSubmitter):
	// the first hands the source a table that admits every line, the second
	// runs before every skip-carrying submission. Never set in production.
	testAdmitAll       bool
	testBeforeSkipping func()

	// ckptMu serialises whole checkpoints (barrier capture + snapshot
	// install) against each other, while the engine lock is held only for
	// the in-memory capture — the control plane never waits on checkpoint
	// disk I/O.
	ckptMu sync.Mutex
}

// journalBase resolves the stream-offset origin for a journaled engine:
// the value Open pinned, the value an early ReplayJournal pinned, or —
// for a fresh engine attached to a journal directory whose records it will
// not replay — the journal's existing record count. Either way, stream
// offsets always equal journal record positions, even when a previous run
// died before writing any checkpoint.
func (e *Engine) journalBase() (int64, error) {
	e.baseMu.Lock()
	defer e.baseMu.Unlock()
	if e.baseResolved || e.cfg.journal == nil || e.cfg.baseOffsetSet {
		e.baseResolved = true
		return e.cfg.baseOffset, nil
	}
	// Only the count is wanted, but through the recovering entry: a crashed
	// run's torn tail record is trimmed first, so first use of its journal
	// just works.
	tail, err := e.cfg.journal.Tail(0)
	if err != nil {
		return 0, err
	}
	n := tail.Count
	e.cfg.baseOffset = n
	e.baseResolved = true
	return n, nil
}

// pinBaseOffset fixes the stream-offset origin explicitly — the path
// ReplayJournal uses on a not-yet-started engine, where the replayed
// records themselves will advance the engine to the journal's head. It
// fails once the origin has already been resolved to a different value
// (events were processed, or the engine started, under other coordinates).
func (e *Engine) pinBaseOffset(off int64) error {
	e.baseMu.Lock()
	defer e.baseMu.Unlock()
	// An explicitly pinned origin (Open) counts as resolved even before
	// journalBase runs: replaying from any other offset into restored state
	// would fold prefix events in twice.
	if (e.baseResolved || e.cfg.baseOffsetSet) && e.cfg.baseOffset != off {
		return fmt.Errorf("saql: journal offset coordinates already fixed at %d", e.cfg.baseOffset)
	}
	e.cfg.baseOffset = off
	e.baseResolved = true
	return nil
}

// queryRecord is the engine-side state behind one registered query: its
// source, live compiled form (its first shard replica on a running engine),
// owning handle, and control-plane flags.
type queryRecord struct {
	name    string
	src     string
	q       *engine.Query
	handle  *QueryHandle
	paused  bool
	managed bool // owned by Engine.Apply reconciliation
	subs    []*AlertSubscription
}

// New creates an engine.
func New(opts ...Option) *Engine {
	cfg := config{
		sharing:   true,
		errDepth:  128,
		shards:    goruntime.GOMAXPROCS(0),
		queueSize: 1024,
	}
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine{
		cfg:      cfg,
		fan:      runtime.NewAlertFanout(cfg.onAlert),
		closedCh: make(chan struct{}),
		reg:      map[string]*queryRecord{},
		tenants:  map[string]*tenantState{},
	}
	onError := cfg.onError
	if fn := cfg.onError; fn != nil {
		onError = func(qe *QueryError) {
			e.handling.Add(1)
			defer e.handling.Add(-1)
			fn(qe)
		}
	}
	e.reporter = engine.NewErrorReporter(cfg.errDepth, onError)
	e.sched = scheduler.New(e.reporter, cfg.sharing)
	// Tenant alert budgets gate delivery at the single fan-out choke point,
	// on both the serial and sharded paths. Installed before any publishing
	// goroutine can exist.
	e.fan.SetGate(e.admitAlert)
	return e
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

// Start moves the engine to the running state: it spins up the sharded
// runtime (WithShards workers behind a bounded ingest queue) and enables
// Submit/SubmitBatch. Queries registered so far are distributed across the
// shards, their state included; Register and QueryHandle.Close keep working
// while running. Cancelling ctx closes the engine (equivalent to Close).
// Start returns ErrAlreadyRunning on a running engine and ErrClosed on a
// closed one.
func (e *Engine) Start(ctx context.Context) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch engineState(e.state.Load()) {
	case stateRunning:
		return ErrAlreadyRunning
	case stateClosed:
		return ErrClosed
	}
	rtCfg := runtime.Config{
		Shards:    e.cfg.shards,
		QueueSize: e.cfg.queueSize,
		Sharing:   e.cfg.sharing,
		Reporter:  e.reporter,
		Fan:       e.fan,
		Owns:      e.cfg.ownsFunc(),
	}
	if e.cfg.journal != nil {
		store := e.cfg.journal
		base, err := e.journalBase()
		if err != nil {
			return err
		}
		rtCfg.Journal = store.AppendAll
		// Events the serial path already journaled and processed are part of
		// the runtime's stream-offset coordinate space.
		rtCfg.BaseOffset = base + e.sched.Stats().Events
	}
	rt := runtime.Start(rtCfg, e.sched.Watermark(event.Watermark{}))
	// Bring every serial query's events-offered counter up to the stream: a
	// warm primary hands its count on to the runtime.
	e.sched.EventsOffered()
	// Distribute the already-registered queries in name order so pinned
	// home-shard assignment is deterministic. Each query's extra replicas are
	// Replicas of it, carrying its program and pause flag: Start compiles nothing.
	names := slices.Sorted(maps.Keys(e.reg))
	installed := make([]*engine.Query, len(names))
	for i, name := range names {
		q, err := rt.Add(e.reg[name].q)
		if err != nil {
			rt.Close()
			return err
		}
		installed[i] = q
	}
	// Every query lives on the shards now: the registry keeps each one's first
	// replica and the serial scheduler goes, so a primary that handed its
	// state over to fresh replicas is collected instead of staying a copy.
	for i, name := range names {
		e.reg[name].q = installed[i]
	}
	e.sched = scheduler.New(e.reporter, e.cfg.sharing)
	e.rt.Store(rt)
	e.state.Store(int32(stateRunning))
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				_ = e.Close()
			case <-e.closedCh:
			}
		}()
	}
	return nil
}

// Close moves the engine to the closed state: the ingest queue is drained,
// every shard flushes its open windows (final alerts flow to subscriptions
// and the alert handler), all subscriptions end, and the workers exit.
// Close is idempotent; concurrent calls wait for the first to finish. A
// never-started engine closes immediately (subscriptions end, Process is
// disabled). Stats, QueryStats and Tenants keep answering with the final
// values.
func (e *Engine) Close() error {
	e.mu.Lock()
	prev := engineState(e.state.Load())
	e.state.Store(int32(stateClosed))
	rt := e.rt.Load()
	if prev != stateClosed {
		close(e.closedCh)
	}
	e.mu.Unlock()

	if rt != nil {
		rt.Close() // idempotent; closes the fan-out
	} else if prev != stateClosed {
		e.fan.Close()
	}
	if store := e.cfg.journal; store != nil && prev != stateClosed {
		// Seal the journal after the final drain so every accepted event is
		// durably indexed; the store stays scannable for replay.
		if err := store.Close(); err != nil {
			e.reporter.Report("", err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Query management (the handle-based API lives in query.go)
// ---------------------------------------------------------------------------

// compile compiles a query under the engine's one compile config: the
// default resource bounds, charging string fallbacks to this engine.
func (e *Engine) compile(name, src string) (*engine.Query, error) {
	return engine.Compile(name, src, engine.CompileOptions{Fallbacks: &e.fallbacks})
}

// ---------------------------------------------------------------------------
// Concurrent ingestion API
// ---------------------------------------------------------------------------

// Submit enqueues one event for processing. The engine must be running
// (Start). When the ingest queue is full Submit waits for room; if the
// engine closes meanwhile it returns ErrClosed, unless WithJournal already
// recorded the event (then a restore replays it). The engine owns the event
// after Submit returns; callers must not mutate it.
func (e *Engine) Submit(ev *Event) error {
	rt, err := e.running()
	if err != nil {
		return err
	}
	return rt.Submit(ev)
}

// SubmitBatch enqueues a batch of events as a single queue item, amortising
// queue traffic for high-rate feeds. Events in a batch are processed in
// order. It waits for room in the queue as Submit does.
func (e *Engine) SubmitBatch(evs []*Event) error {
	rt, err := e.running()
	if err != nil {
		return err
	}
	return rt.SubmitBatch(evs)
}

func (e *Engine) running() (*runtime.Runtime, error) {
	switch engineState(e.state.Load()) {
	case stateNew:
		return nil, ErrNotRunning
	case stateClosed:
		return nil, ErrClosed
	}
	return e.rt.Load(), nil
}

// Subscribe registers a push-based alert stream carrying every alert the
// engine raises (from both the concurrent path and the serial reference).
// Multiple subscribers each receive every alert. buf bounds the channel;
// policy selects Block backpressure or DropNewest when the subscriber
// falls behind (drops are counted per subscription). Subscribing to a
// closed engine returns a subscription whose channel is already closed and
// whose Err reports ErrClosed, so a late subscriber can tell a dead stream
// from an idle one. For a stream carrying a single query's alerts, use
// QueryHandle.Subscribe.
func (e *Engine) Subscribe(buf int, policy OverflowPolicy) *AlertSubscription {
	return e.fan.Subscribe(buf, policy)
}

// ---------------------------------------------------------------------------
// The serial reference (never-started engines)
// ---------------------------------------------------------------------------

// Process feeds one event through all queries of a never-started engine and
// returns the alerts raised: the serial reference every started engine is
// held to, alert for alert. On a running engine it forwards the event to
// Submit and returns nil (alerts flow to subscriptions and the alert
// handler); on a closed engine it returns nil.
func (e *Engine) Process(ev *Event) []*Alert {
	switch engineState(e.state.Load()) {
	case stateRunning:
		if rt := e.rt.Load(); rt != nil {
			_ = rt.Submit(ev)
		}
		return nil
	case stateClosed:
		return nil
	}
	// Serial path: the scheduler serialises event processing internally,
	// and no Engine lock is held here, so alert handlers and subscribers
	// are free to call back into the Engine. With a journal configured the
	// append and the processing share one lock hold, pinning the journal
	// order to the processing order checkpoint offsets index.
	if store := e.cfg.journal; store != nil {
		if _, err := e.journalBase(); err != nil {
			e.reporter.Report("", err)
			return nil
		}
		e.jmu.Lock()
		if err := store.AppendAll([]*Event{ev}); err != nil {
			// An unjournaled event must not be processed: counting it would
			// desync checkpoint offsets from the journal's contents and make
			// a later replay skip a real tail event. Same contract as the
			// sharded path, which rejects the whole batch.
			e.jmu.Unlock()
			e.reporter.Report("", err)
			return nil
		}
		alerts := e.sched.Process(ev)
		e.jmu.Unlock()
		e.fan.Publish(alerts)
		return alerts
	}
	alerts := e.sched.Process(ev)
	e.fan.Publish(alerts)
	return alerts
}

// Flush closes all open windows (end of stream) and returns final alerts:
// the serial reference's end of stream. On a running engine the flush
// happens at a consistent point of the stream — after everything submitted
// before the call — and the alerts are also delivered to subscriptions
// (Close flushes every shard the same way).
func (e *Engine) Flush() []*Alert {
	switch engineState(e.state.Load()) {
	case stateRunning:
		if rt := e.rt.Load(); rt != nil {
			alerts, _ := rt.Flush()
			return alerts
		}
		return nil
	case stateClosed:
		return nil
	}
	alerts := e.sched.Flush()
	e.fan.Publish(alerts)
	return alerts
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

// Errors returns recent runtime query errors (oldest first). On a
// never-started engine they include those of every event Process has returned
// from; a running engine's shards report an aggregation argument's error when
// its slice folds (see WithErrorHandler).
func (e *Engine) Errors() []*QueryError {
	e.settleErrors()
	return e.reporter.Recent()
}

// ErrorCount returns the total number of runtime query errors, as of Errors.
// An error is counted once, at any shard count: the replica owning the
// failing evaluation reports it.
func (e *Engine) ErrorCount() int64 {
	e.settleErrors()
	return e.reporter.Total()
}

// settleErrors has a never-started engine's scheduler fold what its slice
// logs hold, so the reporter holds the errors of every event processed. An
// error handler calling in runs while the scheduler is folding, and reads the
// reporter as it is.
func (e *Engine) settleErrors() {
	if engineState(e.state.Load()) != stateNew || e.handling.Load() > 0 {
		return
	}
	e.mu.Lock() // Start hands the queries over under it
	defer e.mu.Unlock()
	if engineState(e.state.Load()) == stateNew {
		e.sched.Settle()
	}
}

// QueryStats returns the per-query runtime counters. On a running engine
// they are its shard replicas' states captured at one point of the stream
// and folded as a restore folds them: serial's at every shard count. After
// Close, at the end of the stream.
func (e *Engine) QueryStats(name string) (QueryStats, bool) {
	m, _ := e.queryStats(false, name)
	st, ok := m[name]
	return st, ok
}

// queryStats reads the named queries' counters, leaving out the names not
// registered: a running engine's off one runtime capture (one control
// barrier whatever their number), which takes no e.mu, a never-started
// one's under e.mu, which the caller holds when locked is set.
func (e *Engine) queryStats(locked bool, names ...string) (map[string]QueryStats, error) {
	if rt := e.rt.Load(); rt != nil {
		return rt.QueryStats(names...)
	}
	if !locked {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	out := make(map[string]QueryStats, len(names))
	for _, name := range names {
		if st, ok := e.sched.QueryStats(name); ok {
			out[name] = st
		}
	}
	return out, nil
}

// groups reports the master–dependent grouping: the serial scheduler's, or on
// a running engine the router's evaluation scheduler's, which holds an
// unfiltered replica of every registered query.
func (e *Engine) groups() map[string][]string {
	if rt := e.rt.Load(); rt != nil {
		return rt.Groups()
	}
	return e.sched.Groups()
}

// Shards reports how many shard workers a running engine uses (0 before
// Start).
func (e *Engine) Shards() int {
	if rt := e.rt.Load(); rt != nil {
		return rt.Shards()
	}
	return 0
}

// Stats returns engine-level counters. Under the sharded runtime the
// copy/evaluation counters come from the router's shared evaluation stage,
// where pattern hits are computed exactly once per event; they therefore
// reflect total matching work performed, independent of the shard count.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	nQueries := len(e.reg)
	e.mu.Unlock()
	var out Stats
	if rt := e.rt.Load(); rt != nil {
		out = statsOf(rt.SchedStats(), rt.GroupCount())
		out.Events = rt.Events() // accepted into the ingest queue
	} else {
		out = statsOf(e.sched.Stats(), e.sched.GroupCount())
	}
	out.Queries = nQueries
	e.tenMu.Lock()
	for _, ts := range e.tenants {
		out.Dropped += ts.Throttled
	}
	e.tenMu.Unlock()
	// Symbol and source counters are engine-scoped and live even after
	// Close: the fallbacks sink is this engine's own, and the symbol
	// counters aggregate the intern tables of exactly the sources that fed
	// this engine (live attachments plus folded totals of detached ones).
	out.SymbolFallbacks = e.fallbacks.Load()
	e.srcMu.Lock()
	out.Sources = len(e.ingests)
	agg := e.srcTotals
	for _, src := range e.ingests {
		agg.Add(src.Stats())
	}
	e.srcMu.Unlock()
	out.SourceLines = agg.Lines
	out.SourceEvents = agg.Events
	out.DecodeErrors = agg.DecodeErrors
	out.SourceDropped = agg.Dropped
	out.SourceSkipped = agg.Skipped
	out.SymbolHits = agg.SymbolHits
	out.SymbolMisses = agg.SymbolMisses
	out.SymbolEntries = int(agg.SymbolEntries)
	return out
}

// statsOf builds the scheduler-derived fields of Stats from a scheduler's
// counters and its group count.
func statsOf(s scheduler.Stats, groups int) Stats {
	return Stats{
		Events:            s.Events,
		Alerts:            s.Alerts,
		QueryGroups:       groups,
		StreamCopies:      s.StreamCopies,
		NaiveCopies:       s.NaiveCopies,
		SharingRatio:      s.SharingRatio(),
		PatternEvals:      s.PatternEvals,
		NaivePatternEvals: s.NaivePatternEvals,
		KeyEvals:          s.KeyEvals,
		GroupProbes:       s.GroupProbes,
	}
}

// attachSource registers a log source with the engine so its counters
// aggregate into Stats. Called by Source.Run.
func (e *Engine) attachSource(src *source.Source) {
	e.srcMu.Lock()
	defer e.srcMu.Unlock()
	for _, s := range e.ingests {
		if s == src {
			return
		}
	}
	e.ingests = append(e.ingests, src)
}

// detachSource removes a finished source, folding its final counters into
// the engine's cumulative totals so Stats keeps counting its lines/events
// while Stats.Sources drops back to the live attachment count. Called by
// Source.Run on the way out.
func (e *Engine) detachSource(src *source.Source) {
	e.srcMu.Lock()
	defer e.srcMu.Unlock()
	for i, s := range e.ingests {
		if s == src {
			e.ingests = append(e.ingests[:i], e.ingests[i+1:]...)
			e.srcTotals.Add(src.Stats())
			return
		}
	}
}

// Validate parses and semantically checks a SAQL query without registering
// it, returning the first error found (nil if the query is well-formed).
func Validate(src string) error {
	q, err := parser.Parse(src)
	if err != nil {
		return err
	}
	_, err = sema.Check(q)
	return err
}

// ---------------------------------------------------------------------------
// Event model re-exports
// ---------------------------------------------------------------------------

// Event is a system monitoring event: subject performed Op on object.
type Event = event.Event

// Entity is a system entity (process, file, or network connection).
type Entity = event.Entity

// Op is a system-call-level operation.
type Op = event.Op

// Operations.
const (
	OpRead    = event.OpRead
	OpWrite   = event.OpWrite
	OpExecute = event.OpExecute
	OpStart   = event.OpStart
	OpEnd     = event.OpEnd
	OpDelete  = event.OpDelete
	OpRename  = event.OpRename
	OpConnect = event.OpConnect
	OpAccept  = event.OpAccept
)

// Process constructs a process entity.
func Process(exe string, pid int32) Entity { return event.Process(exe, pid) }

// File constructs a file entity.
func File(path string) Entity { return event.File(path) }

// NetConn constructs a network connection entity.
func NetConn(srcIP string, srcPort int32, dstIP string, dstPort int32) Entity {
	return event.NetConn(srcIP, srcPort, dstIP, dstPort)
}
