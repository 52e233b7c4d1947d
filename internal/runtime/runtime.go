// Package runtime implements the concurrent sharded ingestion runtime
// beneath the public saql.Engine API: a bounded ingest queue whose
// submitters wait for room, a router establishing one total event
// order and pre-evaluating pattern hits once per event, N shard workers
// each owning a private scheduler, and an alert fan-out merging every
// shard's detections into subscriptions. Every started engine runs this one
// pipeline — evaluate and resolve, route by ownership, fold — at every shard
// count, and the serial reference the conformance tests compare against
// (scheduler.Process) runs the same evaluate, resolve and fold code as one
// shard that owns every state.
//
// # Shared evaluation: the router resolves, the shards fold
//
// The router owns an evaluation-only scheduler holding an unfiltered
// replica of every registered query. Before routing an event it runs
// the shard-agnostic half of the master–dependent scheme exactly once —
// each group's master pattern predicates, refined into per-dependent
// residual hit sets — into scratch that scheduler owns: a HitSet is valid
// until the next batch is evaluated and never leaves the routing goroutine.
// The same stage resolves it, once per variant set (a group's master and its
// equal dependents of one key class and placement): the set's hit list and,
// for a stateful set, each hit's group key, evaluated once per event for all
// the queries whose key programs are the same. The router turns that into ops
// (scheduler.Op) by ownership alone — for a stateful set's hit, fold(set,
// pattern, key) on the shard owning the key; touch(set) on the other shards
// holding its replicas; for a rule set, hits(set, pattern set) — and a shard
// is handed exactly the ops it owns. Shards never evaluate a pattern predicate, a group
// key or an ownership hash: scheduler.Apply hands a stateful set's ops to its
// slice log, resolving a fold's key to a group id once for all the set's
// members, and the log folds them into every member when the watermark — the
// entry's stamp or the batch's, the stream watermark either way — reaches the
// end of its slice, so windows close at the same instants everywhere. Per-event pattern work is
// therefore O(patterns), key work O(key classes) and routing work O(variant
// sets), not O(shards × queries). Control operations (add/swap/remove/pause) are applied to the
// evaluation scheduler by the router at the moment their envelope passes
// through it — after every buffered slab is flushed, before any later event
// — and every slab is stamped with the layout its ops were resolved under,
// so hot-swap stays consistent: a shard resolves op slots against exactly
// the registry state the router evaluated with.
//
// # Shard placement and partitioned routing
//
// The router establishes one total event order and partitions delivery by
// state ownership (see router.go): an event reaches only the shards that
// own state it would fold into —
//
//   - by-group queries (stateful, group-by, no clustering, no distinct)
//     replicate onto every shard, and each group-by key is owned by exactly
//     one shard (FNV hash of the key); a non-owning replica receives a touch
//     op once per slice of its variant set's window specs, so window cadence
//     stays identical;
//   - by-event queries (stateless single-pattern rules) replicate onto
//     every shard, and each event is owned by exactly one shard (hash of
//     the subject entity);
//   - pinned queries (multievent rules, outlier/clustering queries,
//     global-group stateful queries, `return distinct`) live on a single
//     home shard, assigned round-robin, which receives every event the
//     query's patterns hit.
//
// Deliveries accumulate into per-shard batch buffers flushed on size
// threshold, queue idleness, and before every control envelope. Control
// operations (add/remove query, flush, checkpoint captures) ride
// the same queue as events and are broadcast behind a full buffer flush, so
// they take effect at a consistent point of the stream on every shard.
package runtime

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/scheduler"
	"saql/internal/window"
)

// ErrClosed is returned by operations on a runtime that has been closed.
var ErrClosed = errors.New("saql: engine closed")

// Config assembles a runtime.
type Config struct {
	// Shards is the number of shard workers (>= 1).
	Shards int
	// QueueSize bounds the ingest queue (in submissions, not events).
	// Submitters wait for room: an accepted event is never dropped.
	QueueSize int
	// Sharing enables the master–dependent-query scheme on each shard.
	Sharing bool
	// Reporter receives runtime query errors (may be nil).
	Reporter *engine.ErrorReporter
	// Fan receives every alert raised by any shard.
	Fan *AlertFanout
	// Journal, when set, durably records every accepted event batch before
	// it is enqueued, in exactly the order the router will process it — the
	// append order is the replay order a checkpoint offset indexes into.
	Journal func([]*event.Event) error
	// BaseOffset seeds the stream-offset counter: a restored runtime
	// continues counting from the snapshot's offset, so its next checkpoint
	// records positions in the same journal coordinate space.
	BaseOffset int64
	// Owns, when set, restricts this runtime to the slice of the 32-bit
	// FNV-1a ownership hash space it owns — the distributed-worker case.
	// By-group and by-event replicas fold only owned state (cluster
	// ownership composes with the per-shard split, and the partitioned
	// router delivers unowned keys nowhere locally), and a pinned query
	// materialises only when the runtime owns the hash of its name. Every
	// runtime in a cluster still observes every event in the same order, and
	// within a runtime watermark stamps and touch ops advance every
	// replica, so watermarks and window boundaries stay identical across a
	// cluster.
	Owns func(uint32) bool
}

// Runtime is the concurrent ingestion core. One Runtime serves one started
// engine; it is safe for concurrent use.
type Runtime struct {
	cfg    Config
	ingest chan envelope
	quit   chan struct{} // closed by Close: releases blocked Submits, stops router
	done   chan struct{} // closed when shutdown (drain + flush) completed
	shards []*shard

	routerDone  chan struct{}
	workersDone sync.WaitGroup

	closed    atomic.Bool
	closeOnce sync.Once

	// submitMu lets Close erect a barrier against in-flight Submits: once
	// Close holds the write side, no submitter can still be mid-enqueue,
	// so the final drain provably sees every accepted event. Add, Swap and
	// Remove hold it too while they publish the next prefilter table and
	// enqueue their control, so every submission is ordered before or after
	// the change.
	submitMu sync.RWMutex

	// table is the prefilter table of the registered queries and its
	// generation (Prefilter), replaced whole under submitMu's write side.
	table atomic.Pointer[prefilterGen]

	events atomic.Int64 // events accepted into the queue

	// jmu serialises journal appends with queue insertion when Journal is
	// set, pinning the journal order to the routing order.
	jmu sync.Mutex
	// routed counts event envelopes the routing goroutine has taken off the
	// queue; it is written only by that goroutine (the router, then Close's
	// final drain) and snapshotted into checkpoint barriers, where it is the
	// stream offset: every journaled event before it has been fully
	// processed, nothing after it has been touched.
	routed int64

	// mu serialises control operations against each other and Close, so a
	// control envelope can never be enqueued after the router drained.
	mu      sync.Mutex
	queries map[string]*queryInfo
	nextPin int

	// evalSched is the shared-evaluation scheduler: an unfiltered replica
	// of every registered query, mutated only by the routing goroutine (the
	// router, then Close's final drain) as control envelopes pass through
	// it. Its own mutex makes concurrent Stats/Groups snapshots safe.
	evalSched *scheduler.Scheduler
	// part is the partitioned-routing state (router.go), confined to the
	// routing goroutine.
	part *partitioner

	// testObserve, when set before any event flows, observes every routed
	// entry a shard receives, and the slab it arrived in, just before the
	// shard applies it (tests pin the ownership-routing invariants with it).
	// Never set in production.
	testObserve func(shard int, b *shardBatch, e *routedEntry)
}

type shard struct {
	id    int
	in    chan envelope
	sched *scheduler.Scheduler
}

// envelope is one queue item. The ingest queue carries submitted event
// batches (evs) and control operations; shard channels carry control
// operations and the router's routed batches (router.go) — never raw events.
type envelope struct {
	evs   []*event.Event
	ctl   *control
	batch *shardBatch
	// skipped counts the lines of a submitted batch that a source's
	// prefilter kept from being built (SubmitSkipping); last is the batch's
	// latest event time, theirs included.
	skipped int64
	last    time.Time
}

// prefilterGen is one published prefilter table: the table of the
// registered queries after the gen-th registry change.
type prefilterGen struct {
	table *scheduler.Prefilter
	gen   uint64
}

type ctlKind uint8

const (
	ctlAdd ctlKind = iota
	ctlRemove
	ctlFlush
	ctlPause
	ctlSwap
	ctlCheckpoint
)

type control struct {
	kind     ctlKind
	name     string
	replicas []*engine.Query // per-shard replica (nil = not placed), ctlAdd/ctlSwap
	eval     *engine.Query   // unfiltered replica for the router's evaluation scheduler
	paused   bool            // ctlPause: target state
	carry    bool            // ctlSwap: adopt the old replica's window state

	// The router stamps the stream offset (events routed before this
	// control) here before broadcasting; the coordinator reads it after
	// collecting the acks, so the write happens-before the read. For
	// ctlCheckpoint it is the barrier's journal position.
	offset int64
	// ctlCheckpoint: every query's events-offered counter at this control,
	// read off the evaluation scheduler by the router
	// (scheduler.EventsOffered). The shards stamp it onto their replicas
	// before encoding them, so a capture carries the count the serial
	// engine's per-query counter would hold at the barrier.
	offered map[string]int64
	names   []string // ctlCheckpoint: the queries to capture

	ack chan ctlResult
}

type ctlResult struct {
	shard   int
	err     error
	removed bool
	alerts  []*engine.Alert
	found   bool
	states  map[string][]byte // ctlCheckpoint: this shard's per-query state
}

type queryInfo struct {
	name      string
	placement engine.Placement
	replicas  []*engine.Query // indexed by shard; nil where absent
	// eval is the evaluation scheduler's replica; its compiled programs,
	// which never change, are what the prefilter table is built from.
	eval *engine.Query
}

// Start spins up the runtime: a router at stream watermark wm, and workers.
func Start(cfg Config, wm event.Watermark) *Runtime {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.QueueSize < 1 {
		cfg.QueueSize = 1024
	}
	if cfg.Fan == nil {
		cfg.Fan = NewAlertFanout(nil)
	}
	r := &Runtime{
		cfg:        cfg,
		ingest:     make(chan envelope, cfg.QueueSize),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		routerDone: make(chan struct{}),
		queries:    map[string]*queryInfo{},
		evalSched:  scheduler.New(cfg.Reporter, cfg.Sharing),
	}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			id:    i,
			in:    make(chan envelope, 128),
			sched: scheduler.New(cfg.Reporter, cfg.Sharing),
		}
		r.shards = append(r.shards, s)
	}
	r.part = newPartitioner(r, wm)
	r.table.Store(&prefilterGen{table: r.prefilterLocked(nil)})
	for _, s := range r.shards {
		r.workersDone.Add(1)
		go r.worker(s)
	}
	go r.router()
	return r
}

// Shards reports the shard count.
func (r *Runtime) Shards() int { return len(r.shards) }

// ---------------------------------------------------------------------------
// Ingestion
// ---------------------------------------------------------------------------

// Submit enqueues one event, waiting for queue space; it returns ErrClosed
// if the runtime closes first. The engine owns the event after Submit
// returns.
func (r *Runtime) Submit(ev *event.Event) error {
	return r.SubmitBatch([]*event.Event{ev})
}

// SubmitBatch enqueues a batch of events as one queue item, waiting for
// queue space as Submit does: batching amortises queue traffic for high-rate
// feeds.
func (r *Runtime) SubmitBatch(evs []*event.Event) error {
	return r.submitBatch(evs, true)
}

// Replay enqueues a batch of already-journaled events: the checkpoint-replay
// path, identical to SubmitBatch except the journal is not appended to
// (the events are being read back out of it).
func (r *Runtime) Replay(evs []*event.Event) error {
	return r.submitBatch(evs, false)
}

// submitBatch is the front of the envelope path: journal (if configured),
// then enqueue on the ingest queue in the same order.
//
//saql:ctlpath
func (r *Runtime) submitBatch(evs []*event.Event, journal bool) error {
	if len(evs) == 0 {
		return nil
	}
	r.submitMu.RLock()
	defer r.submitMu.RUnlock()
	if r.closed.Load() {
		return ErrClosed
	}
	journaled := false
	if journal && r.cfg.Journal != nil {
		// Journal, then enqueue, under one lock hold: the journal's append
		// order is exactly the queue order, so a checkpoint offset indexes
		// the journal correctly.
		r.jmu.Lock()
		defer r.jmu.Unlock()
		if err := r.cfg.Journal(evs); err != nil {
			return fmt.Errorf("saql: journal: %w", err)
		}
		journaled = true
	}
	select {
	case r.ingest <- envelope{evs: evs}:
		r.events.Add(int64(len(evs)))
		return nil
	case <-r.quit:
		if journaled {
			// The batch is durably journaled past the final checkpoint's
			// offset but the runtime died before processing it: it is
			// accepted — a restore from this journal replays it exactly
			// once. Returning ErrClosed here would tell the producer the
			// events were rejected while the journal disagrees.
			return nil
		}
		return ErrClosed
	}
}

// SubmitSkipping is SubmitBatch for a batch from a source that prefilters
// its lines with the table of generation gen (Prefilter): evs are the events
// it built, skipped counts the lines it decoded but did not build because
// the table admitted none of them, and last is the batch's latest event
// time, the skipped lines' included. evs must be time-ordered and no later
// than last. The skipped lines count as accepted events that no query hits.
// A registry change since gen may admit lines the old table did not: then
// nothing is enqueued and stale is true, and the caller builds the batch in
// full and submits it with SubmitBatch.
//
//saql:ctlpath
func (r *Runtime) SubmitSkipping(evs []*event.Event, skipped int64, last time.Time, gen uint64) (stale bool, err error) {
	r.submitMu.RLock()
	defer r.submitMu.RUnlock()
	if r.closed.Load() {
		return false, ErrClosed
	}
	if r.table.Load().gen != gen {
		return true, nil
	}
	select {
	case r.ingest <- envelope{evs: evs, skipped: skipped, last: last}:
		r.events.Add(int64(len(evs)) + skipped)
		return false, nil
	case <-r.quit:
		return false, ErrClosed
	}
}

// Prefilter returns the current prefilter table of the registered queries
// and its generation, for the decoders of a source that runs into this
// runtime (SubmitSkipping). A journaled runtime's table admits every line:
// the journal records every event.
func (r *Runtime) Prefilter() (*scheduler.Prefilter, uint64) {
	t := r.table.Load()
	return t.table, t.gen
}

// prefilterLocked builds the prefilter table of the registered queries with
// c applied: c's query added or swapped in, or removed (nil: the registry as
// it is). The caller holds r.mu.
func (r *Runtime) prefilterLocked(c *control) *scheduler.Prefilter {
	if r.cfg.Journal != nil {
		return scheduler.AdmitAll()
	}
	qs := make([]*engine.Query, 0, len(r.queries)+1)
	for name, qi := range r.queries {
		if c == nil || name != c.name {
			qs = append(qs, qi.eval)
		}
	}
	if c != nil && c.eval != nil {
		qs = append(qs, c.eval)
	}
	return scheduler.NewPrefilter(qs)
}

// Events reports how many events have been accepted into the queue.
func (r *Runtime) Events() int64 { return r.events.Load() }

// ---------------------------------------------------------------------------
// Router and workers
// ---------------------------------------------------------------------------

func (r *Runtime) router() {
	defer close(r.routerDone)
	for {
		select {
		case <-r.quit:
			// Stop pulling; Close performs the final drain after it has
			// barriered out every in-flight Submit (a submitter racing
			// Close could otherwise enqueue an accepted event after a
			// drain here and have it silently lost). Buffered entries are
			// not lost either: Close flushes after the drain.
			return
		case env := <-r.ingest:
			r.route(env)
			// Keep routing while the queue has work, then flush the
			// per-shard buffers once it goes idle: batches amortise channel
			// traffic under load without adding latency when there is none.
		drain:
			for {
				select {
				case env := <-r.ingest:
					r.route(env)
				case <-r.quit:
					return
				default:
					break drain
				}
			}
			r.part.flushAll()
		}
	}
}

// route is the shared-evaluation stage: control envelopes update the
// evaluation scheduler (so the hit-set layout changes at exactly this point
// of the total order), event envelopes get their pattern hits computed
// once, here, before fan-out. Called only from the routing goroutine — the
// router, then Close's final drain.
func (r *Runtime) route(env envelope) {
	if env.ctl != nil {
		// Flush buffered deliveries first: the control must broadcast
		// behind everything routed before it (FIFO per shard channel), so
		// it cuts the stream at one consistent point even though shards
		// see disjoint event subsets.
		r.part.flushAll()
		// The control's stream offset: for checkpoints, the barrier
		// position (every event routed before this envelope, and only
		// those, is covered by the snapshot).
		env.ctl.offset = r.cfg.BaseOffset + r.routed
		r.applyEval(env.ctl)
		r.broadcast(env)
		return
	}
	r.routed += int64(len(env.evs)) + env.skipped
	// The hit sets live in the evaluation scheduler's scratch until its next
	// batch: they are resolved into ops here and go no further.
	hits := r.evalSched.EvaluateBatch(env.evs)
	for i, ev := range env.evs {
		r.part.routeEvent(ev, hits[i])
	}
	if env.skipped > 0 {
		// Skipped lines are events no query hits, and such an event's one
		// effect here is on the stream watermark. The batch is time-ordered,
		// so none of them is later than a built event that follows it: the
		// watermark through each built event is what it would have been with
		// them, and after the batch it is through last.
		r.evalSched.Skip(env.skipped)
		r.part.wm.Through(env.last)
	}
}

// applyEval applies a control operation to the evaluation scheduler. The
// registry-level preconditions (duplicate names, unknown names) were
// checked under r.mu before the envelope was enqueued, so errors here are
// unreachable; the results that matter flow back through the shard acks.
func (r *Runtime) applyEval(c *control) {
	r.part.applyCtl(c)
	switch c.kind {
	case ctlAdd:
		_ = r.evalSched.Add(c.eval)
	case ctlRemove:
		r.evalSched.Remove(c.name)
	case ctlSwap:
		// An evaluation replica holds no window state; a carrying swap hands
		// the old one's counters on, its events-offered count among them.
		_ = r.evalSched.Swap(c.name, c.eval, c.carry)
	case ctlPause:
		// Pause must reach the evaluation scheduler too: a fully paused
		// group stops being evaluated (and counted) at the same stream
		// point where the shards stop ingesting it.
		r.evalSched.SetPaused(c.name, c.paused)
	case ctlCheckpoint:
		// No replica is offered every event: the evaluation scheduler counts
		// the events offered to each query, read at this stream point.
		c.offered = r.evalSched.EventsOffered()
	}
}

// broadcast forwards one control envelope to every shard in shard order,
// so all shards observe it at the identical point of the total order.
//
//saql:ctlpath
func (r *Runtime) broadcast(env envelope) {
	for _, s := range r.shards {
		s.in <- env
	}
}

func (r *Runtime) worker(s *shard) {
	defer r.workersDone.Done()
	for env := range s.in {
		if env.ctl != nil {
			s.apply(env.ctl, r.cfg.Fan)
			continue
		}
		r.processBatch(s, env.batch)
	}
	// Shutdown: close all open windows.
	r.cfg.Fan.Publish(s.sched.Flush())
}

// apply executes one control envelope on the shard's own goroutine and
// acks the result — the only place shard state may change.
//
//saql:ctlpath
func (s *shard) apply(c *control, fan *AlertFanout) {
	res := ctlResult{shard: s.id}
	switch c.kind {
	case ctlAdd:
		if q := c.replicas[s.id]; q != nil {
			res.err = s.sched.Add(q)
		}
	case ctlRemove:
		res.removed = s.sched.Remove(c.name)
	case ctlPause:
		res.found = s.sched.SetPaused(c.name, c.paused)
	case ctlSwap:
		// Swap is atomic per shard and, because the control envelope is
		// broadcast in the single total order, every shard swaps at the
		// same point of the stream: sharded hot-swap remains
		// alert-for-alert equivalent to a serial remove+add.
		if q := c.replicas[s.id]; q != nil {
			res.err = s.sched.Swap(c.name, q, c.carry)
		} else {
			res.removed = s.sched.Remove(c.name)
		}
	case ctlFlush:
		res.alerts = s.sched.Flush()
		fan.Publish(res.alerts)
	case ctlCheckpoint:
		// The barrier: every event routed before this envelope has been
		// fully folded into this shard's state, nothing after it has been
		// touched. Encoding is the deep copy — the shard resumes mutating
		// its state the moment the ack is sent.
		for _, name := range c.names {
			if q, ok := s.sched.Query(name); ok {
				q.SetEventsOffered(c.offered[name])
			}
		}
		res.states, _, res.err = s.sched.CaptureStates(c.names...)
	}
	c.ack <- res
}

// control enqueues a control envelope and waits for every shard's ack.
// Caller must hold r.mu.
//
//saql:ctlpath
func (r *Runtime) control(c *control) ([]ctlResult, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	c.ack = make(chan ctlResult, len(r.shards))
	if err := r.enqueueControl(c); err != nil {
		return nil, err
	}
	results := make([]ctlResult, 0, len(r.shards))
	for range r.shards {
		results = append(results, <-c.ack)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].shard < results[j].shard })
	return results, nil
}

// enqueueControl puts c on the ingest queue. A registry change (add, swap,
// remove) first publishes the prefilter table it leads to, under the write
// side of submitMu: a skip-carrying submission checks its table's generation
// under the read side, so it is either enqueued before c, or stale once c
// has been published. Caller holds r.mu.
//
//saql:ctlpath
func (r *Runtime) enqueueControl(c *control) error {
	if c.kind == ctlAdd || c.kind == ctlSwap || c.kind == ctlRemove {
		r.submitMu.Lock()
		defer r.submitMu.Unlock()
		r.table.Store(&prefilterGen{table: r.prefilterLocked(c), gen: r.table.Load().gen + 1})
	}
	select {
	case r.ingest <- envelope{ctl: c}:
		return nil
	case <-r.quit:
		return ErrClosed
	}
}

// ---------------------------------------------------------------------------
// Query management
// ---------------------------------------------------------------------------

// buildReplicas lays a query out across the shards: one home shard for
// pinned placements (pinnedHome, or round-robin when negative), a filtered
// replica per shard otherwise, each extra one a primary.Replica(). warm says
// the primary has counted events: a serial warm-up, or checkpoint state
// folded in before Start (a query holds state only once events were offered
// to it, and its blob carries the count). The caller holds r.mu.
func (r *Runtime) buildReplicas(primary *engine.Query, pinnedHome int, warm bool) ([]*engine.Query, error) {
	n := len(r.shards)
	placement := primary.Placement()
	replicas := make([]*engine.Query, n)
	owns := r.cfg.Owns
	switch placement {
	case engine.PlacePinned:
		if owns != nil && !owns(hashString(primary.Name)) {
			// Another cluster worker owns this query's home hash. The name
			// stays registered (control ops and stats keep a consistent
			// registry) but no replica folds state or raises alerts here.
			return replicas, nil
		}
		home := pinnedHome
		if home < 0 || home >= n {
			home = r.nextPin % n
			r.nextPin++
		}
		replicas[home] = primary
	case engine.PlaceByGroup, engine.PlaceByEvent:
		// A warm primary's state is handed to every replica, each an empty
		// Replica of it: the one way state reaches a shard. A by-group
		// replica keeps the groups its shard owns (by-event state has no
		// groups to split), and the first also takes the single-owner part.
		// A cold primary is the first replica itself.
		var state []byte
		if warm {
			var err error
			if state, err = primary.EncodeState(); err != nil {
				return nil, err
			}
		}
		for i := 0; i < n; i++ {
			q := primary
			if i > 0 || state != nil {
				q = primary.Replica()
			}
			if state != nil {
				var keep func(string) bool
				if placement == engine.PlaceByGroup {
					own := composeOwner(ownerFilter(i, n), owns)
					keep = func(key string) bool { return own(hashString(key)) }
				}
				if err := q.RestoreState(state, keep, i == 0); err != nil {
					return nil, err
				}
			}
			replicas[i] = q
		}
	}
	return replicas, nil
}

// composeOwner narrows a per-shard ownership predicate by the runtime's
// cluster-level key-range ownership, when configured.
func composeOwner(shard, owns func(uint32) bool) func(uint32) bool {
	if owns == nil {
		return shard
	}
	return func(h uint32) bool { return owns(h) && shard(h) }
}

// Add registers a compiled query across the shards. Every other replica it
// needs — per additional shard of a distributed placement, for the router's
// evaluation scheduler, and in primary's place when primary hands warm state
// over (buildReplicas) — is a primary.Replica(). Add returns the query that
// stands for the registration: its first replica, primary unless primary
// handed its state over, so the caller can let go of it.
func (r *Runtime) Add(primary *engine.Query) (*engine.Query, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.queries[primary.Name]; dup {
		return nil, fmt.Errorf("saql: duplicate query name %q", primary.Name)
	}
	if err := r.install(ctlAdd, primary, -1, false); err != nil {
		return nil, err
	}
	for _, q := range r.queries[primary.Name].replicas {
		if q != nil {
			return q, nil
		}
	}
	return primary, nil
}

// Swap atomically replaces the query registered under primary.Name with
// primary, at one consistent point of the event stream on every shard. A
// pinned replacement keeps the old query's home shard, so the swap happens
// "in place" from the stream's point of view. When carry is set, each new
// replica adopts its predecessor's sliding-window state on that shard (the
// caller has verified engine.Query.CanCarryStateFrom; per-shard group
// ownership is deterministic, so carried state lands on the shard that owns
// it). The replacement's counters start fresh, exactly like a serial
// remove+add, unless carry hands them over with the rest of the state.
func (r *Runtime) Swap(primary *engine.Query, carry bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	qi, ok := r.queries[primary.Name]
	if !ok {
		return fmt.Errorf("saql: unknown query %q", primary.Name)
	}
	pinnedHome := -1
	if qi.placement == engine.PlacePinned && primary.Placement() == engine.PlacePinned {
		for i, q := range qi.replicas {
			if q != nil {
				pinnedHome = i
			}
		}
	}
	return r.install(ctlSwap, primary, pinnedHome, carry)
}

// install lays primary out across the shards, sends the add or swap control,
// and records the replica set in the registry. The caller holds r.mu.
func (r *Runtime) install(kind ctlKind, primary *engine.Query, pinnedHome int, carry bool) error {
	name := primary.Name
	// Read before the control hands primary to its shard worker. A primary
	// that already counted events (a serial warm-up or a restored snapshot)
	// is warm, and its events-offered counter resumes there — reading them
	// folds what its serial slice log still holds.
	counted := primary.Stats().Events
	replicas, err := r.buildReplicas(primary, pinnedHome, counted > 0)
	if err != nil {
		return err
	}
	// The router's evaluation scheduler needs its own replica: shard
	// replicas carry ownership filters and are worker-confined. It is the
	// one that counts the events offered to the query, from counted on.
	evalQ := primary.Replica()
	evalQ.SetEventsOffered(counted)
	c := &control{kind: kind, name: name, replicas: replicas, eval: evalQ, carry: carry}
	results, err := r.control(c)
	if err != nil {
		return err
	}
	for _, res := range results {
		if res.err != nil {
			// A shard refused its replica (practically unreachable: names
			// were checked under r.mu). Retire the name everywhere so
			// shards stay consistent rather than half-installed.
			_, _ = r.control(&control{kind: ctlRemove, name: name})
			delete(r.queries, name)
			return res.err
		}
	}
	r.queries[name] = &queryInfo{name: name, placement: primary.Placement(), replicas: replicas, eval: evalQ}
	return nil
}

// Pause marks a query paused or active on every shard, at one consistent
// point of the stream, reporting whether the name was found.
func (r *Runtime) Pause(name string, paused bool) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.queries[name]; !ok {
		return false, nil
	}
	results, err := r.control(&control{kind: ctlPause, name: name, paused: paused})
	if err != nil {
		return false, err
	}
	for _, res := range results {
		if res.found {
			return true, nil
		}
	}
	return false, nil
}

// Remove unregisters a query from every shard it is placed on.
func (r *Runtime) Remove(name string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.queries[name]; !ok {
		return false, nil
	}
	results, err := r.control(&control{kind: ctlRemove, name: name})
	if err != nil {
		return false, err
	}
	delete(r.queries, name)
	for _, res := range results {
		if res.removed {
			return true, nil
		}
	}
	return false, nil
}

// Placement reports where a registered query runs.
func (r *Runtime) Placement(name string) (engine.Placement, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	qi, ok := r.queries[name]
	if !ok {
		return 0, false
	}
	return qi.placement, true
}

// Flush closes all open windows on every shard at a consistent point of the
// stream (after everything submitted before the call). The resulting alerts
// are published to subscribers and returned in shard order.
func (r *Runtime) Flush() ([]*engine.Alert, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	results, err := r.control(&control{kind: ctlFlush})
	if err != nil {
		return nil, err
	}
	var alerts []*engine.Alert
	for _, res := range results {
		alerts = append(alerts, res.alerts...)
	}
	return alerts, nil
}

// SchedStats reports the scheduler counters. Pattern evaluation, key
// evaluation and stream-copy work happens exactly once per event in the
// router's shared evaluation stage, so those counters come straight from the
// evaluation scheduler (KeyEvals: once per event per hit pattern per key
// class — plus, on the shard that reports a key that failed, the
// re-derivation of its error) — all of them total work performed,
// independent of the shard count. Directory probes (GroupProbes) happen on
// the shards that fold, at most one per event per hit pattern per key class
// each, and alerts are raised on the shards (disjointly, by state
// ownership); both are summed.
func (r *Runtime) SchedStats() scheduler.Stats {
	out := r.evalSched.Stats()
	for _, s := range r.shards {
		st := s.sched.Stats()
		out.KeyEvals += st.KeyEvals
		out.GroupProbes += st.GroupProbes
		out.Alerts += st.Alerts
	}
	return out
}

// Groups reports the master–dependent grouping of the router's evaluation
// scheduler, which holds an unfiltered replica of every registered query —
// the same grouping a serial engine would compute.
func (r *Runtime) Groups() map[string][]string { return r.evalSched.Groups() }

// GroupCount reports the evaluation scheduler's group count.
func (r *Runtime) GroupCount() int { return r.evalSched.GroupCount() }

// ---------------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------------

// Close drains the queue, flushes every shard (publishing final alerts to
// subscribers), closes all subscriptions, and waits for the workers to
// exit. Safe to call more than once; later calls wait for the first.
func (r *Runtime) Close() {
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		r.mu.Lock() // wait out any in-flight control operation
		close(r.quit)
		r.mu.Unlock()
		<-r.routerDone
		// Barrier: after this, no Submit is mid-enqueue and every later
		// Submit observes the closed flag, so the queue can no longer
		// grow and the drain below sees every accepted event.
		r.submitMu.Lock()
		r.submitMu.Unlock() //nolint:staticcheck // barrier, not critical section
		for {
			select {
			case env := <-r.ingest:
				r.route(env) // the router has exited; this goroutine routes now
				continue
			default:
			}
			break
		}
		// Deliver whatever the drain (or the router, pre-quit) left buffered
		// before the channels close.
		r.part.flushAll()
		for _, s := range r.shards {
			close(s.in)
		}
		r.workersDone.Wait()
		r.cfg.Fan.Close()
		close(r.done)
	})
	<-r.done
}

// ---------------------------------------------------------------------------
// Ownership hashing
// ---------------------------------------------------------------------------

// ownerFilter returns a predicate reporting whether a hash belongs to shard
// i of n.
func ownerFilter(i, n int) func(uint32) bool {
	return func(h uint32) bool { return int(h%uint32(n)) == i }
}

// hashString is the ownership hash (32-bit FNV-1a) of a group-by key or
// query name — the value Config.Owns predicates observe for by-group and
// pinned placements, and the value the distributed layer splits into worker
// key ranges. It is window.HashKey, the hash key class directories probe
// with, so a key routed by its hash is never hashed again.
func hashString(s string) uint32 { return window.HashKey(s) }

// hashSubject hashes the subject entity identity without allocating: the
// value Config.Owns predicates observe for by-event placements.
func hashSubject(ev *event.Event) uint32 {
	h := hashString(ev.Subject.ExeName)
	pid := uint32(ev.Subject.PID)
	h ^= pid
	h *= 16777619
	return h
}
