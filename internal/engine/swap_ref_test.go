package engine

// The hot-swap carry as it stood before it moved state as a blob, kept
// verbatim (the name aside) as the oracle for TestCarryMatchesReference: the
// replacement takes the old query's window manager, groups and counters by
// pointer, and re-resolves its pattern slots against the carried manager.

// refCarryStateFrom moves old's runtime state into q: the window manager
// (open windows and watermark), every group's history ring and invariant
// state, and the runtime counters (WindowsClosed drives history backfill for
// late-appearing groups, so it must travel with the windows it counted).
// The `return distinct` suppression table carries only when the return
// clause is textually unchanged — different return items key differently.
// Callers must have established CanCarryStateFrom and must run at a point
// where neither query is ingesting events.
func (q *Query) refCarryStateFrom(old *Query) {
	old.settle()
	q.winMgr = old.winMgr
	// The carried manager keeps the slots its open groups and histories were
	// written under; this query's patterns re-resolve against it (names the
	// old query did not bind get fresh slots).
	q.assignSlots()
	q.groups = old.groups
	q.sortGroups() // the carried groups' key order, a list of q's own
	q.stats = old.stats
	if q.distinct != nil && old.distinct != nil &&
		q.AST.Return.String() == old.AST.Return.String() {
		q.distinct = old.distinct
	}
}
