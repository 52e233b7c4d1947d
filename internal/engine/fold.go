package engine

// The per-event half of query execution: pattern matching and the folding of
// hits into multievent partial matches and window state. Everything here that
// evaluates an expression runs an internal/pcode program against the event
// (the query's frame, holding the matched event); close.go holds the other
// half — what a completed match or a closed window evaluates, through programs
// of the same kind compiled in the close scope.

import (
	"slices"
	"strings"

	"saql/internal/agg"
	"saql/internal/event"
	"saql/internal/pcode"
	"saql/internal/value"
	"saql/internal/window"
)

// ResidualHits refines a master query's hit set down to the patterns this
// (stricter) query itself matches, appending them to dst: the dependent-side
// half of the master–dependent scheme, decoupled from ingestion so it can run
// once in a shared pre-evaluation stage rather than on every shard. evals
// reports how many pattern predicates were actually evaluated (for sharing
// accounting).
//
//saql:hotpath
func (q *Query) ResidualHits(dst []int, ev *event.Event, masterHits []int) (hits []int, evals int) {
	if len(masterHits) == 0 || !q.global.Match(ev) {
		return dst, 0
	}
	for _, hi := range masterHits {
		evals++
		if q.patterns[hi].Matches(ev) {
			dst = append(dst, hi)
		}
	}
	return dst, evals
}

// MatchBatch evaluates the query's patterns across a batch in pattern-major
// (columnar) order: one compiled pattern sweeps the events before the next
// pattern runs, keeping its programs hot in cache. It sweeps the positions
// of evs listed in at, ascending — the events a caller's index left the
// query — or every event when at is nil. For each swept position i, bit p of
// masks[i] is set iff pattern p matches evs[i] (and the event passed the
// global constraints); unswept positions are left alone. masks and globalOK
// are caller-owned scratch of len(evs). A query has at most sema.MaxPatterns
// (63) patterns, one mask bit each. It is the one place a master's patterns
// run: the scheduler's evaluator calls it on a router batch and on a serial
// event alike.
//
//saql:hotpath
func (q *Query) MatchBatch(evs []*event.Event, at []int32, masks []uint64, globalOK []bool) {
	passed := false // whether any swept event passed the global constraints
	if at == nil {
		for i, ev := range evs {
			globalOK[i], masks[i] = q.global.Match(ev), 0
			passed = passed || globalOK[i]
		}
		if !passed {
			return
		}
		for pi, p := range q.patterns {
			bit := uint64(1) << uint(pi)
			for i, ev := range evs {
				if globalOK[i] && p.Matches(ev) {
					masks[i] |= bit
				}
			}
		}
		return
	}
	for _, i := range at {
		globalOK[i], masks[i] = q.global.Match(evs[i]), 0
		passed = passed || globalOK[i]
	}
	if !passed {
		return
	}
	for pi, p := range q.patterns {
		bit := uint64(1) << uint(pi)
		for _, i := range at {
			if globalOK[i] && p.Matches(evs[i]) {
				masks[i] |= bit
			}
		}
	}
}

// Ingest feeds a rule query the patterns ev hit — computed by its group's
// master in the evaluating scheduler — and returns the alerts of the matches
// they complete: the rule fold a scheduler runs on each member of a rule set
// that is not paused, counting the event it is handed. report receives
// runtime evaluation errors. A stateful query folds through its variant
// set's slice log instead (SliceLog.Add).
func (q *Query) Ingest(ev *event.Event, hits []int, report func(error)) []*Alert {
	q.stats.Events++
	if len(hits) == 0 {
		return nil
	}
	q.stats.PatternHits += int64(len(hits))
	var alerts []*Alert
	for _, m := range q.seq.ObserveHits(ev, hits) {
		q.stats.Matches++
		if al := q.alertMatch(m, report); al != nil {
			alerts = append(alerts, al)
		}
	}
	return alerts
}

// settle seals the slice log the query folds through, if it has one: its
// state is then what folding hit by hit would have left. Every reader of the
// state calls it — Stats, EncodeState (and StateBytes), RestoreState,
// CarryStateFrom, SetPaused, Flush — so no caller has to.
func (q *Query) settle() {
	if q.log != nil {
		q.log.Settle()
	}
}

// foldColumns folds one chunk of a sealing slice log — its hits in run order
// with their argument values, c — into the query's windows. It evaluates no
// key and no argument and asks no ownership question: the log's class resolved
// each key once for every member, the log ran each distinct argument program
// once per hit, and a replica is handed exactly the folds it owns. A group's
// in-slice hits in the chunk share one window assignment, made at the first
// of them (any instant of the slice assigns the same windows, so a run a chunk
// edge cuts folds the same); any other hit takes its own, which also decides
// whether it is late. A stretch of one group's in-slice hits of one pattern
// folds at once (foldStretch). The errors go to errs, each with its hit's
// index, for the log to report in arrival order.
//
//saql:hotpath
func (q *Query) foldColumns(c *columns, d *window.Directory, errs *[]foldErr) {
	q.stats.PatternHits += int64(len(c.rows))
	var groups []*window.Group
	shared := false // groups is the assignment of the run's in-slice hits
	for lo := 0; lo < len(c.rows); lo = int(c.rows[lo].end) {
		r := &c.rows[lo]
		if !shared || !r.in || c.rows[lo-1].id != r.id {
			groups = q.winMgr.GroupFor(r.ev.Time, d, r.id)
		}
		shared = r.in
		q.foldStretch(groups, c, lo, int(r.end), errs)
	}
}

// foldStretch folds rows [lo, hi) of c — hits of one pattern into one group —
// into groups, its group in each window containing them: the stretch's length
// onto Count, slot-indexed first-writer bindings (every hit of the pattern
// binds the same slots, so the first one's stand), and one AddAll per field
// over the stretch of the field's column.
//
//saql:hotpath
func (q *Query) foldStretch(groups []*window.Group, c *columns, lo, hi int, errs *[]foldErr) {
	ev := c.rows[lo].ev
	slots, cols := q.slots[c.rows[lo].pat], q.argCols[c.rows[lo].pat]
	for _, g := range groups {
		g.Count += hi - lo
		// Remember representative bindings for alert/return output: the
		// first event to bind a slot keeps it, and the object is offered
		// first because it shadows a subject of the same name.
		if slots.obj >= 0 && g.Entities[slots.obj] == nil {
			g.Entities[slots.obj] = &ev.Object
		}
		if slots.subj >= 0 && g.Entities[slots.subj] == nil {
			g.Entities[slots.subj] = &ev.Subject
		}
		if slots.alias >= 0 && g.Events[slots.alias] == nil {
			g.Events[slots.alias] = ev
		}
		for i, k := range cols {
			at := int(k) * foldChunk
			var failed []error
			if c.bad[k] {
				failed = c.errs[at+lo : at+hi]
			}
			addColumn(g.Aggs[i], c.vals[at+lo:at+hi], failed, c.rows[lo:hi], errs)
		}
	}
}

// addColumn folds vs, the values of rows, into a in order: one AddAll up to
// each value that failed to evaluate (failed, nil when none did) or that a
// refuses, whose error it files under its hit, and on after it.
//
//saql:hotpath
func addColumn(a agg.Aggregator, vs []value.Value, failed []error, rows []foldRow, errs *[]foldErr) {
	for len(vs) > 0 {
		m := len(vs)
		if failed != nil {
			m = slices.IndexFunc(failed, func(err error) bool { return err != nil })
			if m < 0 {
				m = len(vs)
			}
		}
		n, err := a.AddAll(vs[:m])
		if err == nil {
			if m == len(vs) {
				return
			}
			err = failed[m]
		}
		*errs = append(*errs, foldErr{at: rows[n].at, err: err})
		vs, rows = vs[n+1:], rows[n+1:]
		if failed != nil {
			failed = failed[n+1:]
		}
	}
}

// HitKey evaluates the group-by key ev yields as a hit of pattern hi: the
// items' values, rendered, joined by \x1f — the empty key without a group-by.
// A failed key is reported as the empty key and the error. A key class calls
// it on one member for all of them (SameKeyPrograms): the evaluating
// scheduler's resolve step once per event per pattern per class.
//
//saql:hotpath
func (q *Query) HitKey(hi int, ev *event.Event) (string, error) {
	items := q.keyProgs[hi]
	q.frame.Event = ev
	if len(items) == 1 {
		if err := items[0].Run(&q.frame, q.progStack); err != nil {
			return "", err
		}
		return q.progStack[0].Text(), nil
	}
	var sb strings.Builder
	for i, item := range items {
		if err := item.Run(&q.frame, q.progStack); err != nil {
			return "", err
		}
		if i > 0 {
			sb.WriteByte('\x1f')
		}
		sb.WriteString(q.progStack[0].Text())
	}
	return sb.String(), nil
}

// SameKeyPrograms reports whether q and o compile every pattern's group-by
// items to identical programs. Programs are pure functions of the event, so
// two such queries yield byte-equal keys for every hit of every event: they
// are one key class, evaluated once for all of them.
func (q *Query) SameKeyPrograms(o *Query) bool {
	return slices.EqualFunc(q.keyProgs, o.keyProgs, func(a, b []*pcode.Prog) bool {
		return slices.EqualFunc(a, b, (*pcode.Prog).Equal)
	})
}

// Flush closes all open windows (end of stream) and returns final alerts,
// once the query's slice log has folded what it holds.
func (q *Query) Flush(report func(error)) []*Alert {
	if report == nil {
		report = func(error) {}
	}
	if !q.stateful {
		return nil
	}
	q.settle()
	return q.closeAll(q.winMgr.Flush(), report)
}
