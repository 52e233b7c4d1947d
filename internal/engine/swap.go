package engine

// Hot-swap support: pausing a query in place and carrying sliding-window state
// from an old compiled query into its replacement, as a state blob. Both
// operations are driven by the scheduler (serial engine) or a shard worker
// (sharded runtime) at a consistent point of the event stream; neither is safe
// to call concurrently with Ingest on the same query.

// SetPaused marks the query paused or active. A paused query ingests no
// events — no pattern matching, no state folding, no watermark advance — but
// keeps all accumulated state (open windows, histories, invariants, partial
// matches), so Resume continues exactly where Pause left off. Flush still
// closes a paused query's open windows. The query's slice log folds what it
// holds for the members as they were, then starts the next slice from the
// members as they are.
func (q *Query) SetPaused(p bool) {
	q.settle()
	q.paused = p
	q.settle()
}

// Paused reports whether the query is paused.
func (q *Query) Paused() bool { return q.paused }

// CanCarryStateFrom reports whether this query can adopt old's sliding-window
// state in a hot-swap: both stateful, with identical window spec, state
// block (fields, grouping, history depth — including the depth implied by
// ss[k] references in alert/return clauses), and invariant block. Pattern
// constraints, alert thresholds, return clauses, and cluster specs may all
// differ: those are evaluated against the carried state, which is exactly
// the live-tuning use case. The check is AST-level only, so it is safe to
// call before the swap is scheduled.
func (q *Query) CanCarryStateFrom(old *Query) bool {
	if old == nil || !q.stateful || !old.stateful {
		return false
	}
	if q.AST.Window == nil || old.AST.Window == nil {
		return false
	}
	if q.AST.Window.Length != old.AST.Window.Length || q.AST.Window.Hop != old.AST.Window.Hop {
		return false
	}
	if q.AST.State.String() != old.AST.State.String() {
		return false
	}
	if q.historyLen != old.historyLen {
		return false
	}
	newInv, oldInv := q.AST.Invariant, old.AST.Invariant
	if (newInv == nil) != (oldInv == nil) {
		return false
	}
	if newInv != nil && newInv.String() != oldInv.String() {
		return false
	}
	return true
}

// CarryStateFrom moves old's runtime state into q as a checkpoint does: old's
// EncodeState blob folded into q by RestoreState, q taking every group and
// every counter. The window manager (open windows and watermark), every
// group's history ring and invariant state, and the runtime counters
// (WindowsClosed drives history backfill for late-appearing groups, so it
// must travel with the windows it counted) all travel in the blob. The one
// rule the blob does not know is the `return distinct` suppression table: it
// carries only when the return clause is textually unchanged — different
// return items key differently. Callers must have established
// CanCarryStateFrom and must run at a point where neither query is ingesting
// events.
func (q *Query) CarryStateFrom(old *Query) error {
	blob, err := old.EncodeState()
	if err != nil {
		return err
	}
	if err := q.RestoreState(blob, nil, true); err != nil {
		return err
	}
	if q.distinct != nil && old.distinct != nil && q.AST.Return.String() != old.AST.Return.String() {
		clear(q.distinct)
	}
	return nil
}
