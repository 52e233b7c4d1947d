package saql

// Durable engine state: checkpoint and restore. Checkpoint captures one
// consistent cut of the engine — the registry (query sources, pause and
// management flags, labels) plus every query's runtime state (open
// windows, aggregator accumulators, history rings, invariant training,
// partial multievent matches, distinct-suppression tables) — at a runtime
// control-queue barrier, so the cut rides the same total order as events,
// pause, and hot-swap. The snapshot is written atomically next to the event
// journal's segments; Open (and Restore, which insists on a snapshot)
// rebuilds an equivalent engine from it and replays the journaled tail from
// the recorded stream offset, making recovery alert-for-alert identical to a
// run that was never interrupted.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"saql/internal/snapshot"
	"saql/internal/storage"
)

// Checkpoint/restore errors (typed, so operators can distinguish "fresh
// directory" from "incompatible snapshot" from "bit rot").
var (
	// ErrNoCheckpoint reports that a directory holds no snapshot file.
	ErrNoCheckpoint = snapshot.ErrNoSnapshot
)

// SnapshotVersionError reports a snapshot this build cannot read: a format
// version, section or section version it does not know, or a version-3
// query with per-query compile options. Restore never guesses at an unknown
// layout: it fails with this error instead of corrupting state.
type SnapshotVersionError = snapshot.VersionError

// SnapshotCorruptError reports a snapshot that failed structural validation
// (bad magic, truncation, CRC mismatch, malformed fields).
type SnapshotCorruptError = snapshot.CorruptError

// JournalCorruptError reports journal bytes no append could have left
// behind — a bad record anywhere but a crash's torn tail (which recovery
// trims), or a segment whose record count disagrees with its index. It
// names the segment file and the byte offset.
type JournalCorruptError = storage.CorruptError

// WithJournal attaches a durable event journal: every event the engine
// ingests (Submit, SubmitBatch, the serial Process path, and attached log
// sources) is appended to store before it is processed, in exactly the
// processing order, so a checkpoint's stream offset indexes the journal and
// Restore can replay the tail. A journaled event is never dropped: Submit
// waits for room in the ingest queue, so replay reprocesses exactly the
// events the original run accepted. Engine.Close seals the store.
//
// Use the same directory for the journal store and for Checkpoint, and the
// directory becomes a self-contained recovery unit — one that Open enters
// whatever state it is in, which is the way to get a durable engine.
// WithJournal itself never replays: attached to a journal that already holds
// records it ingests fresh, counting the existing records into its offset
// base so later checkpoints still index true journal positions (a torn tail
// record left by a crash mid-append is trimmed on first use).
func WithJournal(store *Store) Option {
	return func(c *config) { c.journal = store }
}

// CheckpointInfo describes one written checkpoint.
type CheckpointInfo struct {
	// Path is the snapshot file written (dir/checkpoint.ckpt).
	Path string
	// Offset is the stream position of the capture barrier: the number of
	// journaled events the snapshot's state reflects.
	Offset int64
	// Queries is how many registered queries the snapshot holds.
	Queries int
}

// Checkpoint serialises a consistent snapshot of the engine into dir,
// atomically replacing any previous snapshot there. On a running engine the
// capture rides the runtime control queue: it reaches every shard at one
// point of the total event order — after everything submitted before the
// call, before anything submitted after it — exactly like pause and
// hot-swap, so the captured states, registry, and stream offset are one
// consistent cut. On a never-started engine the cut is taken under the
// scheduler lock, between two events.
//
// Checkpoint does not interrupt processing: shards resume the moment their
// state is encoded, and the journal fsync and snapshot file write happen
// after the engine lock is released, so the control plane (Register,
// Apply, Pause, Update) never stalls on disk I/O. Concurrent Checkpoint
// calls serialise against each other, so snapshots are installed in
// barrier order.
func (e *Engine) Checkpoint(dir string) (*CheckpointInfo, error) {
	// ckptMu first: it orders whole checkpoints (capture + install), so a
	// later barrier's snapshot can never be overwritten by an earlier one.
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	snap, err := e.captureSnapshot()
	if err != nil {
		return nil, err
	}

	// Make the journal durable up to (at least) the barrier offset before
	// installing the snapshot that names it: a snapshot must never point
	// past what the journal can replay after a power loss. Every record the
	// barrier covers was appended before the capture returned, which is all
	// Store.Sync needs — the fsync runs beside ingest, off the journal-order
	// lock submitters queue on.
	if store := e.cfg.journal; store != nil {
		if err := store.Sync(); err != nil {
			return nil, err
		}
	}

	path, err := snapshot.Write(dir, snap)
	if err != nil {
		return nil, err
	}
	return &CheckpointInfo{Path: path, Offset: snap.Offset, Queries: len(snap.Queries)}, nil
}

// captureSnapshot performs the in-memory half of Checkpoint — the barrier,
// the state capture, and the registry copy — under the engine lock.
func (e *Engine) captureSnapshot() (*snapshot.Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if engineState(e.state.Load()) == stateClosed {
		return nil, ErrClosed
	}
	if e.cfg.journal == nil {
		// Without a journal the snapshot's offset names records that exist
		// nowhere: Restore would (rightly) refuse it. Fail at capture time,
		// where the misconfiguration is fixable.
		return nil, fmt.Errorf("saql: Checkpoint requires an event journal (WithJournal) so the snapshot's stream offset is replayable")
	}

	snap := &snapshot.Snapshot{TakenAt: time.Now()} //saql:wallclock informational capture timestamp, never replayed
	var states map[string][][]byte
	if rt := e.rt.Load(); rt != nil {
		cs, err := rt.Checkpoint()
		if err != nil {
			return nil, err
		}
		snap.Offset = cs.Offset
		snap.Shards = rt.Shards()
		states = cs.States
	} else {
		m, events, err := e.sched.CaptureStates(slices.Collect(maps.Keys(e.reg))...)
		if err != nil {
			return nil, err
		}
		base, err := e.journalBase()
		if err != nil {
			return nil, err
		}
		snap.Offset = base + events
		states = make(map[string][][]byte, len(m))
		for name, blob := range m {
			states[name] = [][]byte{blob}
		}
	}

	for _, name := range slices.Sorted(maps.Keys(e.reg)) {
		rec := e.reg[name]
		snap.Queries = append(snap.Queries, snapshot.Query{
			Name:    name,
			Src:     rec.src,
			Paused:  rec.paused,
			Managed: rec.managed,
			Labels:  rec.handle.labels,
			States:  states[name],
		})
	}

	// Tenant control-plane metadata rides the same cut: quotas plus the
	// budget/throttle counters, so a restored engine keeps enforcing a
	// mid-window alert budget instead of granting a fresh one. (Lock order:
	// e.mu, then e.tenMu — same as everywhere else.)
	e.tenMu.Lock()
	for _, name := range slices.Sorted(maps.Keys(e.tenants)) {
		ts := e.tenants[name]
		snap.Tenants = append(snap.Tenants, snapshot.Tenant{Name: name, Quotas: snapshot.Quotas(ts.quotas), Account: ts.Account})
	}
	e.tenMu.Unlock()
	return snap, nil
}

// RestoreOption configures Open and Restore.
type RestoreOption func(*restoreConfig)

type restoreConfig struct {
	engineOpts []Option
	start      bool
	replay     bool
}

// WithRestoreEngineOptions forwards engine options (WithShards,
// WithAlertHandler, WithIngestQueue, ...) to the restored engine. The shard
// count is free to differ from the capturing engine's: group-keyed state is
// re-split across shards by the same ownership hashing live execution uses.
func WithRestoreEngineOptions(opts ...Option) RestoreOption {
	return func(c *restoreConfig) { c.engineOpts = append(c.engineOpts, opts...) }
}

// WithoutStart leaves the restored engine in the serial state (no runtime,
// Process-driven), its state already in the registered queries: a later
// Start hands it to the shards exactly as Open would have. The journal tail
// is still replayed — through the serial path — unless WithoutReplay is also
// given.
func WithoutStart() RestoreOption {
	return func(c *restoreConfig) { c.start = false }
}

// WithoutReplay skips the automatic journal-tail replay: the engine is
// restored to the exact checkpoint barrier and the caller drives the tail
// itself — for example to interleave control operations at recorded stream
// positions. Drive it with Engine.ReplayJournal, which reads the journal
// back without re-appending. Re-submitting the tail through Submit instead
// appends duplicate records to the journal, so an engine recovered that
// way must not write further checkpoints into the same directory (a later
// restore would replay the duplicated tail on top of state that already
// reflects it).
func WithoutReplay() RestoreOption {
	return func(c *restoreConfig) { c.replay = false }
}

// RestoreInfo describes one completed Open or Restore.
type RestoreInfo struct {
	// TakenAt is the wall-clock time the snapshot was captured; zero when
	// the directory held no snapshot.
	TakenAt time.Time
	// Offset is the snapshot's stream offset: the engine's state reflects
	// exactly the first Offset journaled events.
	Offset int64
	// Replayed is how many journal-tail events were replayed (0 under
	// WithoutReplay).
	Replayed int64
	// Queries is how many queries were re-registered.
	Queries int
}

// Open is the one way into a durable directory: it rebuilds the engine dir
// describes and leaves it journaling new events there, so the next
// Checkpoint is incremental in the same coordinate space. The snapshot's
// queries are re-registered — each with its recorded source, labels, pause
// flag, and management flag, under a fresh, pointer-stable QueryHandle —
// their captured runtime state is folded back in before any event flows
// (RestoreStateBlobs, then Start, which re-splits it over the shards), and
// the journaled event tail past the snapshot's offset is replayed, so the
// engine resumes alert-for-alert exactly where an uninterrupted run would
// be.
//
// A directory without a snapshot is a snapshot at offset 0 holding no
// queries, through the same code: an empty directory yields a fresh engine,
// and a journal orphaned by a run that died before its first checkpoint
// (torn final record trimmed) is replayed from record 0 — by Open itself,
// into an engine with no queries, or, under WithoutReplay, by the caller's
// ReplayJournal(info.Offset) once it has registered its queries.
//
// By default the engine is started (with any WithRestoreEngineOptions
// applied) and the tail replayed before Open returns; alerts raised during
// replay flow to the WithAlertHandler callback, so pass one in the engine
// options to observe them (subscriptions attach only after Open returns).
// An unreadable snapshot fails with *SnapshotVersionError or
// *SnapshotCorruptError and touches nothing.
func Open(dir string, opts ...RestoreOption) (*Engine, *RestoreInfo, error) {
	return open(dir, false, opts)
}

// Restore is Open for a directory that must hold a checkpoint: without a
// snapshot it fails with ErrNoCheckpoint instead of starting from nothing.
func Restore(dir string, opts ...RestoreOption) (*Engine, *RestoreInfo, error) {
	return open(dir, true, opts)
}

func open(dir string, needSnapshot bool, opts []RestoreOption) (*Engine, *RestoreInfo, error) {
	cfg := restoreConfig{start: true, replay: true}
	for _, o := range opts {
		o(&cfg)
	}
	snap, err := snapshot.Read(dir)
	if !needSnapshot && errors.Is(err, ErrNoCheckpoint) {
		snap, err = &snapshot.Snapshot{}, nil
	}
	if err != nil {
		return nil, nil, err
	}
	store, err := storage.Open(dir, storage.Options{})
	if err != nil {
		return nil, nil, err
	}
	// Recover the journal — a power loss may leave its final, unsealed
	// segment ending in a torn record, which is trimmed — and locate the
	// tail past the snapshot's offset, still encoded. The journal must reach
	// at least that offset, or the tail the snapshot's state depends on is
	// gone (truncated journal, wrong directory): replaying nothing and
	// continuing would silently lose events, so fail loudly instead.
	tail, err := store.Tail(snap.Offset)
	if err == nil && tail.Count < snap.Offset {
		err = &snapshot.CorruptError{
			Reason: fmt.Sprintf("journal holds %d records but the snapshot names offset %d (journal truncated or mismatched directory)", tail.Count, snap.Offset),
		}
	}
	if err != nil {
		_ = store.Close()
		return nil, nil, err
	}
	engOpts := append([]Option{}, cfg.engineOpts...)
	engOpts = append(engOpts, func(c *config) {
		c.journal = store
		c.baseOffset = snap.Offset
		c.baseOffsetSet = true
	})
	eng := New(engOpts...)
	// On any failure past this point, close the engine (which seals the
	// journal store) so a retrying supervisor does not leak a store handle
	// per attempt.
	fail := func(err error) (*Engine, *RestoreInfo, error) {
		_ = eng.Close()
		return nil, nil, err
	}

	// Re-register the registry. Sources were compiled by the capturing
	// engine, so failures here mean a build-incompatible language change —
	// surfaced, never ignored.
	states := make(map[string][][]byte, len(snap.Queries))
	eng.mu.Lock()
	for _, qs := range snap.Queries {
		states[qs.Name] = qs.States
		q, err := eng.compile(qs.Name, qs.Src)
		if err == nil {
			_, err = eng.registerLocked(qs.Name, qs.Src, q, qs.Labels, qs.Managed)
		}
		if err != nil {
			eng.mu.Unlock()
			return fail(fmt.Errorf("saql: restore query %q: %w", qs.Name, err))
		}
		if qs.Paused {
			eng.reg[qs.Name].paused = true
			eng.sched.SetPaused(qs.Name, true)
		}
	}
	eng.mu.Unlock()

	// Reinstall tenant quotas and accounting before any event flows, so the
	// tail replay enforces the same mid-window budgets the capturing engine
	// was enforcing.
	eng.tenMu.Lock()
	for _, t := range snap.Tenants {
		ts := eng.tenantLocked(t.Name)
		ts.quotas = TenantQuotas(t.Quotas)
		ts.Account = t.Account
	}
	eng.tenMu.Unlock()

	// Fold the captured state into the registered queries; Start hands it to
	// the shards as it hands over any warm query.
	if err := eng.RestoreStateBlobs(states); err != nil {
		return fail(err)
	}
	// The stream watermark the snapshot's prefix reached, which a query
	// resumed or registered from here on starts at; Start hands it on.
	eng.sched.Watermark(tail.Before)
	if cfg.start {
		if err := eng.Start(context.Background()); err != nil {
			return fail(err)
		}
	}

	info := &RestoreInfo{TakenAt: snap.TakenAt, Offset: snap.Offset, Queries: len(snap.Queries)}
	if cfg.replay {
		if info.Replayed, err = eng.replayTail(tail); err != nil {
			return fail(err)
		}
	}
	return eng, info, nil
}

// ReplayJournal feeds the attached journal's events from the global record
// offset `from` back through the engine, without re-journaling them, and
// reports how many were replayed. Open uses it for the checkpoint tail;
// call it directly after Open(..., WithoutReplay()) once queries and
// subscriptions are attached. Replay preserves journal order; run it to
// completion before attaching live sources, or new submissions may
// interleave.
func (e *Engine) ReplayJournal(from int64) (int64, error) {
	store := e.cfg.journal
	if store == nil {
		return 0, fmt.Errorf("saql: no journal attached (WithJournal)")
	}
	fresh := engineState(e.state.Load()) == stateNew
	if fresh {
		// Pre-Start replay: pin the offset origin at `from` — the replayed
		// records themselves advance the engine to the journal's head, so
		// counting them into the base too would double them.
		if err := e.pinBaseOffset(from); err != nil {
			return 0, err
		}
	}
	tail, err := store.Tail(from)
	if err != nil {
		return 0, err
	}
	if fresh {
		// The stream watermark the skipped prefix reached, as Open raises
		// it: a query registered after the replay judges stragglers late
		// against the whole stream, not only its tail.
		e.sched.Watermark(tail.Before)
	}
	return e.replayTail(tail)
}

// replayTail decodes a journal tail and feeds it through the engine in
// journal order, 512 events per submission.
func (e *Engine) replayTail(tail *storage.Tail) (int64, error) {
	var n int64
	var batch []*Event
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		evs := batch
		batch = nil
		if rt := e.rt.Load(); rt != nil {
			return rt.Replay(evs)
		}
		for _, ev := range evs {
			e.fan.Publish(e.sched.Process(ev))
		}
		return nil
	}
	err := tail.Each(func(ev *Event) error {
		batch = append(batch, ev)
		n++
		if len(batch) >= 512 {
			return flush()
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	return n, flush()
}
