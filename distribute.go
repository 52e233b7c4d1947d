package saql

// Distributed execution support: key-range ownership over the FNV group-key
// hash space and barrier-consistent state transfer. These are the engine
// hooks the internal/dist coordinator/worker layer builds on — a worker is
// a normal Engine restricted to the key ranges it owns (WithKeyRanges),
// and a key range migrates between workers by folding the source's
// checkpoint state blobs into the restored, not yet started target
// (RestoreStateBlobs); Start's hand-over then keeps exactly the state the
// target's ownership filters accept.

import (
	"fmt"
	"maps"
	"slices"
)

// KeyRange is an inclusive range [Lo, Hi] of the 32-bit FNV-1a ownership
// hash space — the same hashing the sharded runtime uses to split group-by
// keys, event subjects, and pinned-query homes across shards. A cluster
// partitions [0, 1<<32) into contiguous ranges, one set per worker.
type KeyRange struct {
	Lo uint32
	Hi uint32
}

// contains reports whether the range owns hash h.
func (r KeyRange) contains(h uint32) bool { return h >= r.Lo && h <= r.Hi }

// String renders the range in hex.
func (r KeyRange) String() string { return fmt.Sprintf("[%08x,%08x]", r.Lo, r.Hi) }

// WithKeyRanges restricts a started engine to the given slices of the
// ownership hash space: by-group replicas fold only group keys hashing into
// an owned range, by-event replicas fold only events whose subject hashes
// into one, and a pinned query materialises only when the engine owns the
// hash of the query's name. Every event is still observed (watermarks and
// window boundaries advance identically on every worker of a cluster, which
// is what keeps distributed execution alert-for-alert equivalent to
// serial); ownership only gates state folding and alerting.
//
// With no ranges the engine owns the whole space (the default). The option
// applies to the sharded runtime: cluster ownership composes with the
// per-shard ownership split on Start, and Restore forwards it via
// WithRestoreEngineOptions.
func WithKeyRanges(ranges ...KeyRange) Option {
	rs := append([]KeyRange(nil), ranges...)
	return func(c *config) { c.ranges = rs }
}

// ownsFunc compiles the configured key ranges into the runtime's ownership
// predicate (nil when the engine owns the whole space).
func (c *config) ownsFunc() func(uint32) bool {
	if len(c.ranges) == 0 {
		return nil
	}
	rs := c.ranges
	return func(h uint32) bool {
		for _, r := range rs {
			if r.contains(h) {
				return true
			}
		}
		return false
	}
}

// RestoreStateBlobs folds captured query-state blobs into the registered
// queries of a never-started engine: Open's restore, and the state-transfer
// half of a key-range migration. The blobs are checkpoint per-query States
// (one consistent cut, taken at the stream offset this engine was restored
// to). Every blob merges into its query: group-keyed state and disjoint
// counters accumulate, and shared stream clocks merge by max/union. Start
// then hands each query over as it hands over any warm query, re-splitting
// its groups through every replica's ownership filter — so folding in state
// for groups this engine does not own is harmless, which is what lets a
// migration ship a source worker's whole snapshot and let the target keep
// only the migrated range.
//
// Blobs for queries not registered on this engine are ignored. It must not
// run concurrently with Process. On a running engine it returns
// ErrAlreadyRunning.
func (e *Engine) RestoreStateBlobs(states map[string][][]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch engineState(e.state.Load()) {
	case stateRunning:
		return ErrAlreadyRunning
	case stateClosed:
		return ErrClosed
	}
	// A blob's events-offered counter merges by max with the query's own:
	// bring that up to the stream first, and have the scheduler count on from
	// the merged one after.
	e.sched.EventsOffered()
	defer e.sched.EventsOffered()
	for _, name := range slices.Sorted(maps.Keys(states)) {
		rec, ok := e.reg[name]
		if !ok {
			continue
		}
		for _, blob := range states[name] {
			if err := rec.q.RestoreState(blob, nil, true); err != nil {
				return fmt.Errorf("saql: restore: %w", err)
			}
		}
	}
	return nil
}
