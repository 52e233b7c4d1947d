package saql

// Distributed execution support: key-range ownership over the FNV group-key
// hash space and barrier-consistent state transfer. These are the engine
// hooks the internal/dist coordinator/worker layer builds on — a worker is
// a normal Engine restricted to the key ranges it owns (WithKeyRanges),
// and a key range migrates between workers by folding the source's
// checkpoint state blobs into the target (RestoreStateBlobs), whose
// ownership filters keep exactly the state it now owns.

import "fmt"

// KeyRange is an inclusive range [Lo, Hi] of the 32-bit FNV-1a ownership
// hash space — the same hashing the sharded runtime uses to split group-by
// keys, event subjects, and pinned-query homes across shards. A cluster
// partitions [0, 1<<32) into contiguous ranges, one set per worker.
type KeyRange struct {
	Lo uint32
	Hi uint32
}

// Contains reports whether the range owns hash h.
func (r KeyRange) Contains(h uint32) bool { return h >= r.Lo && h <= r.Hi }

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
			if r.Contains(h) {
				return true
			}
		}
		return false
	}
}

// RestoreStateBlobs folds captured query-state blobs into a running engine
// at a pre-stream control barrier — the state-transfer half of a key-range
// migration. The blobs are a checkpoint's per-query States (one consistent
// cut, taken at the same stream offset this engine was restored to); every
// blob is offered to every shard, and the engine's ownership filters keep
// exactly the state it owns: group-keyed state lands where the group hash
// is owned, single-owner state (distinct tables, partial matches, pinned
// windows) is granted to the lowest shard holding a replica, and shared
// stream clocks merge by max/union — so re-folding state for unowned groups
// is harmless, which is what lets a migration ship a source worker's whole
// snapshot and let the target keep only the migrated range.
//
// Blobs for queries not registered on this engine are ignored.
func (e *Engine) RestoreStateBlobs(states map[string][][]byte) error {
	rt := e.rt.Load()
	if rt == nil {
		return ErrNotRunning
	}
	if len(states) == 0 {
		return nil
	}
	return rt.RestoreStates(states)
}
