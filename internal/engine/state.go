package engine

// Checkpoint support: a compiled query serialises its complete runtime state
// — counters, the multievent partial-match table, open windows with their
// aggregator accumulators, per-group history rings, invariant training
// state, and the `return distinct` suppression table — into one opaque wire
// blob, and restores it into a fresh replica or compile of the same query.
//
// This is the state half of the evaluate/ingest split: EncodeState touches
// exactly the structures Ingest mutates, nothing the (stateless) evaluation
// side reads. Blobs are captured per shard replica at a runtime barrier and
// applied per replica on restore; RestoreState therefore uses merge
// semantics, keeping only the group-keyed state the replica's shard owns so
// one logical state re-splits cleanly across a different shard count:
//
//   - shared state every replica observes identically (watermark, open
//     window set, Events/WindowsClosed counters) merges by max/union on
//     every replica — WindowsClosed drives history backfill for
//     late-appearing groups, so it must be identical everywhere;
//   - group-keyed state (window accumulators, history rings, invariants)
//     folds only into a replica whose keep predicate accepts the key;
//   - disjoint counters (hits, matches, alerts) and global tables (distinct
//     suppression, partial matches) are restored where disjoint=true, which
//     the restoring side grants to exactly one replica per query.

import (
	"fmt"
	"sort"

	"saql/internal/invariant"
	"saql/internal/wire"
)

// stateBlobVersion guards the per-query blob layout (the snapshot file has
// its own format version on top; this one catches blobs routed to a query
// compiled under different semantics).
const stateBlobVersion = 1

// EncodeState serialises the query's complete runtime state into one blob,
// once its slice log has folded what it holds. It must run at a point where
// the query is not ingesting events (a scheduler lock hold or a runtime
// control barrier).
func (q *Query) EncodeState() ([]byte, error) {
	q.settle()
	b := []byte{stateBlobVersion}
	b = wire.AppendBool(b, q.stateful)

	// Runtime counters.
	b = wire.AppendVarint(b, q.stats.Events)
	b = wire.AppendVarint(b, q.stats.PatternHits)
	b = wire.AppendVarint(b, q.stats.Matches)
	b = wire.AppendVarint(b, q.stats.WindowsClosed)
	b = wire.AppendVarint(b, q.stats.Alerts)
	b = wire.AppendVarint(b, q.stats.Suppressed)
	b = wire.AppendVarint(b, q.stats.EvalErrors)

	// `return distinct` suppression table.
	b = wire.AppendBool(b, q.distinct != nil)
	if q.distinct != nil {
		keys := make([]string, 0, len(q.distinct))
		for k := range q.distinct {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = wire.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = wire.AppendString(b, k)
		}
	}

	if !q.stateful {
		b = q.seq.AppendState(b)
		return b, nil
	}

	var err error
	if b, err = q.winMgr.AppendState(b); err != nil {
		return nil, err
	}

	b = wire.AppendUvarint(b, uint64(len(q.byKey)))
	for _, rt := range q.byKey {
		b = wire.AppendString(b, rt.key)
		b = wire.AppendVarint(b, int64(rt.idleWindows))
		b = rt.history.AppendState(b)
		b = wire.AppendBool(b, rt.inv != nil)
		if rt.inv != nil {
			b = rt.inv.AppendState(b)
		}
	}
	return b, nil
}

// RestoreState folds one encoded state blob into q (a fresh replica or
// compile of the query the blob was captured under). disjoint selects whether
// this replica also absorbs the blob's single-owner state: the disjoint
// counters, the distinct table, the partial-match table, and the late-event
// count. Group-keyed state is kept only for the group-by keys keep accepts
// (nil keeps every group, the serial engine's behaviour): a by-group shard
// replica passes the keys its shard owns. RestoreState may be called once
// per blob when a checkpoint captured several shards' states; the merges
// compose.
func (q *Query) RestoreState(blob []byte, keep func(groupKey string) bool, disjoint bool) error {
	q.settle()
	err := q.restoreState(blob, keep, disjoint)
	if q.stateful {
		q.sortGroups() // the groups read, up to any error, join the key order
	}
	q.settle() // the restored watermark and windows cut the next slice
	return err
}

func (q *Query) restoreState(blob []byte, keep func(string) bool, disjoint bool) error {
	r := wire.NewReader(blob)
	if v := r.Byte(); r.Err() == nil && v != stateBlobVersion {
		return fmt.Errorf("engine: query %q: unknown state blob version %d", q.Name, v)
	}
	stateful := r.Bool()
	if r.Err() != nil {
		return fmt.Errorf("engine: query %q: %w", q.Name, r.Err())
	}
	if stateful != q.stateful {
		return fmt.Errorf("engine: query %q: snapshot is %s but query compiled %s",
			q.Name, statefulWord(stateful), statefulWord(q.stateful))
	}

	var st QueryStats
	st.Events = r.Varint()
	st.PatternHits = r.Varint()
	st.Matches = r.Varint()
	st.WindowsClosed = r.Varint()
	st.Alerts = r.Varint()
	st.Suppressed = r.Varint()
	st.EvalErrors = r.Varint()
	if r.Err() != nil {
		return fmt.Errorf("engine: query %q: %w", q.Name, r.Err())
	}
	// Shared counters: identical on every replica at the barrier, so max
	// merges blobs idempotently.
	if st.Events > q.stats.Events {
		q.stats.Events = st.Events
	}
	if st.WindowsClosed > q.stats.WindowsClosed {
		q.stats.WindowsClosed = st.WindowsClosed
	}
	if disjoint {
		q.stats.PatternHits += st.PatternHits
		q.stats.Matches += st.Matches
		q.stats.Alerts += st.Alerts
		q.stats.Suppressed += st.Suppressed
		q.stats.EvalErrors += st.EvalErrors
	}

	if r.Bool() { // distinct table present
		n := r.Count(1)
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.String()
			if disjoint && q.distinct != nil {
				q.distinct[k] = struct{}{}
			}
		}
	}
	if r.Err() != nil {
		return fmt.Errorf("engine: query %q: %w", q.Name, r.Err())
	}

	if !stateful {
		// Partial matches exist only for multievent queries, which are
		// pinned to a single replica; single-pattern (by-event) queries
		// encode an empty table, so unconditional application is exact.
		if err := q.seq.ReadState(r); err != nil {
			return fmt.Errorf("engine: query %q: %w", q.Name, err)
		}
		return nil
	}

	if err := q.winMgr.ReadState(r, keep, disjoint); err != nil {
		return fmt.Errorf("engine: query %q: %w", q.Name, err)
	}

	nGroups := r.Count(2)
	for i := 0; i < nGroups && r.Err() == nil; i++ {
		key := r.String()
		idle := int(r.Varint())
		hist := q.winMgr.NewHistory(q.historyLen)
		if err := hist.ReadState(r); err != nil {
			return fmt.Errorf("engine: query %q group %q: %w", q.Name, key, err)
		}
		hasInv := r.Bool()
		if hasInv != q.hasInv {
			return fmt.Errorf("engine: query %q group %q: snapshot invariant presence %v, query %v",
				q.Name, key, hasInv, q.hasInv)
		}
		var inv *invariant.State
		if hasInv {
			inv = invariant.NewState(q.invSpec, q.invInits)
			if err := inv.ReadState(r); err != nil {
				return fmt.Errorf("engine: query %q group %q: %w", q.Name, key, err)
			}
		}
		if keep == nil || keep(key) {
			q.groups[key] = &groupRuntime{key: key, history: hist, inv: inv, idleWindows: idle}
		}
	}
	if r.Err() != nil {
		return fmt.Errorf("engine: query %q: %w", q.Name, r.Err())
	}
	return nil
}

func statefulWord(s bool) string {
	if s {
		return "stateful"
	}
	return "rule-based"
}
