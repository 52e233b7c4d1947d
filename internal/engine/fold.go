package engine

// The per-event half of query execution: pattern matching and the folding of
// hits into multievent partial matches and window state. Everything here that
// evaluates an expression runs an internal/pcode program against the event
// (the query's frame, holding the matched event); close.go holds the other
// half — what a completed match or a closed window evaluates, through programs
// of the same kind compiled in the close scope.

import (
	"math/bits"
	"slices"
	"strings"

	"saql/internal/event"
	"saql/internal/pcode"
	"saql/internal/window"
)

// Hits returns the indices of the query's patterns that ev satisfies,
// including the query's global constraints, in ascending order: MatchBatch on
// a batch of one, for a query used on its own.
func (q *Query) Hits(ev *event.Event) []int {
	var mask [1]uint64
	var ok [1]bool
	q.MatchBatch([]*event.Event{ev}, nil, mask[:], ok[:])
	var hits []int
	for m := mask[0]; m != 0; m &= m - 1 {
		hits = append(hits, bits.TrailingZeros64(m))
	}
	return hits
}

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
// event alike, and Hits on a batch of one.
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

// Process feeds one event through the full pipeline (matching + ingestion)
// and returns any alerts raised.
func (q *Query) Process(ev *event.Event, report func(error)) []*Alert {
	return q.Ingest(ev, q.Hits(ev), report)
}

// Ingest advances the query with an event whose pattern hits were already
// computed (by this query or by its master in a scheduler group). A rule query
// feeds them to its matcher; a stateful one folds through a slice log of its
// own (a variant set of one). report receives runtime evaluation errors; it
// may be nil. An error a hit's aggregation arguments raise is reported when
// its slice seals, in hit order: to the report of the Ingest or Flush call
// that seals it, or of the last Ingest when a state reader (Stats,
// EncodeState) does.
func (q *Query) Ingest(ev *event.Event, hits []int, report func(error)) []*Alert {
	if report == nil {
		report = func(error) {}
	}
	if !q.stateful {
		q.stats.Events++
		return q.ingestRule(ev, hits, report)
	}
	if q.own == nil {
		kc := NewKeyClass()
		q.own = NewSliceLog([]*Query{q}, kc, report)
		kc.SetLogs([]*SliceLog{q.own})
	}
	q.own.report = report
	q.ownSeq++
	return q.own.Offer(q.ownSeq, ev, hits)
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

// ingestRule feeds ev's hits to the multievent matcher and turns the matches
// they complete into alerts.
func (q *Query) ingestRule(ev *event.Event, hits []int, report func(error)) []*Alert {
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

// foldRun folds a run of logged hits — hits[i] for each i of run: one
// group's, whose key holds id in directory d, in arrival order — into the
// query's windows, when a slice log seals. It evaluates no key and asks no ownership
// question: the log's class resolved each key once for every member, and a
// replica is handed exactly the folds it owns. The hits inside the slice
// [start, end) share one window assignment, made once for the run; any other
// hit takes its own, which also decides whether it is late. The errors the
// arguments raise go to errs, each with its hit's index, for the log to report
// in arrival order.
//
//saql:hotpath
func (q *Query) foldRun(hits []sliceHit, run []int32, d *window.Directory, id int32, start, end int64, errs *[]foldErr) {
	var groups []*window.Group
	shared := false
	for _, i := range run {
		h := &hits[i]
		if t := h.ev.Time.UnixNano(); t < start || t >= end {
			groups, shared = q.winMgr.GroupFor(h.ev.Time, d, id), false
		} else if !shared {
			groups, shared = q.winMgr.GroupFor(h.ev.Time, d, id), true
		}
		q.foldInto(groups, h.ev, int(h.pat), i, errs)
	}
}

// foldInto folds ev, the hit of pattern hi at index at of its log, into
// groups — its group in each window containing it: slot-indexed first-writer
// bindings, the compiled argument programs, one Add per field.
//
//saql:hotpath
func (q *Query) foldInto(groups []*window.Group, ev *event.Event, hi int, at int32, errs *[]foldErr) {
	q.stats.PatternHits++
	q.frame.Event = ev
	slots, args := q.slots[hi], q.argProgs[hi]
	for _, g := range groups {
		g.Count++
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
		for i, arg := range args {
			err := arg.Run(&q.frame, q.progStack)
			if err == nil {
				err = g.Aggs[i].Add(q.progStack[0])
			}
			if err != nil {
				*errs = append(*errs, foldErr{at: at, err: err})
			}
		}
	}
}

// HitKey evaluates the group-by key ev yields as a hit of pattern hi: the
// items' values, rendered, joined by \x1f — the empty key without a group-by.
// A failed key is reported as the empty key and the error. A key class calls
// it on one member for all of them (SameKeyPrograms): the serial fold once per
// event per pattern per class, the router likewise on its evaluation replicas.
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

// Flush closes all open windows (end of stream) and returns final alerts. A
// query used on its own reports the errors of the final slice's fold to
// report too.
func (q *Query) Flush(report func(error)) []*Alert {
	if report == nil {
		report = func(error) {}
	}
	if !q.stateful {
		return nil
	}
	if q.own != nil {
		q.own.report = report
	}
	q.settle()
	return q.closeAll(q.winMgr.Flush(), report)
}
