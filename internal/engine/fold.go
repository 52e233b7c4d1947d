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
	"time"

	"saql/internal/event"
	"saql/internal/pcode"
	"saql/internal/window"
)

// Hits returns the indices of the query's patterns that ev satisfies,
// including the query's global constraints. It is the expensive matching
// phase that the master–dependent-query scheme executes once per group.
func (q *Query) Hits(ev *event.Event) []int { return q.AppendHits(nil, ev) }

// AppendHits is Hits appending to dst, for callers that consume the hits
// before their next call and so can reuse one buffer.
//
//saql:hotpath
func (q *Query) AppendHits(dst []int, ev *event.Event) []int {
	if !q.global.Match(ev) {
		return dst
	}
	for i, p := range q.patterns {
		if p.Matches(ev) {
			dst = append(dst, i)
		}
	}
	return dst
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

// MatchBatch evaluates the query's patterns across a whole batch in
// pattern-major (columnar) order: one compiled pattern sweeps all events
// before the next pattern runs, keeping its programs hot in cache. Bit p of
// masks[i] is set iff pattern p matches evs[i] (and the event passed the
// global constraints). masks and globalOK are caller-owned scratch of
// len(evs); masks must arrive zeroed. A query has at most sema.MaxPatterns
// (63) patterns, one mask bit each.
//
//saql:hotpath
func (q *Query) MatchBatch(evs []*event.Event, masks []uint64, globalOK []bool) {
	for i, ev := range evs {
		globalOK[i] = q.global.Match(ev)
	}
	for pi, p := range q.patterns {
		bit := uint64(1) << uint(pi)
		for i, ev := range evs {
			if globalOK[i] && p.Matches(ev) {
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
// computed (by this query or by its master in a scheduler group), keying a
// stateful query's hits through a key class of its own. report receives
// runtime evaluation errors; it may be nil.
func (q *Query) Ingest(ev *event.Event, hits []int, report func(error)) []*Alert {
	q.ownSeq++
	return q.IngestKeyed(ev, hits, q.ownClass(), q.ownSeq, report)
}

// ownClass is the key class Ingest folds a stateful query through: the query
// alone.
func (q *Query) ownClass() *KeyClass {
	if q.stateful && q.own == nil {
		q.own = NewKeyClass()
		q.own.SetMembers([]*Query{q})
	}
	return q.own
}

// IngestKeyed is Ingest with a stateful query's group keys resolved through
// kc, the key class the query belongs to in its scheduler: the first member
// the event numbered seq reaches evaluates a pattern's key and resolves it in
// the class's directory, and every member after it folds under the same id
// (foldHits). A rule query ignores kc.
func (q *Query) IngestKeyed(ev *event.Event, hits []int, kc *KeyClass, seq uint64, report func(error)) []*Alert {
	q.stats.Events++
	if report == nil {
		report = func(error) {}
	}
	if !q.stateful {
		return q.ingestRule(ev, hits, report)
	}
	if len(hits) > 0 {
		q.foldHits(ev, hits, kc, seq, report)
	}
	// Advance the watermark — below the manager's deadline, two compares —
	// and close any finished windows. This happens even for events that
	// match no pattern (on the serial path, most calls): time always flows.
	return q.closeAll(q.winMgr.Advance(ev.Time), report)
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

// foldHits is the serial engine's fold: per hit it takes the group id of the
// hit's key from the class memo (KeyClass.Key: evaluated and resolved once
// per event per pattern for the whole class) and folds the hit into that
// group (FoldGroup). A key that fails to evaluate is reported, folds nothing
// and is not counted in PatternHits, but its windows still open, so close
// counts and empty-snapshot cadence do not depend on it.
//
//saql:hotpath
func (q *Query) foldHits(ev *event.Event, hits []int, kc *KeyClass, seq uint64, report func(error)) {
	for _, hi := range hits {
		id, err := kc.Key(seq, q, hi, ev)
		if err != nil {
			q.KeyFailed(ev.Time, err, report)
			continue
		}
		q.FoldGroup(ev, hi, &kc.dir, id, report)
	}
}

// FoldGroup folds ev, a hit of pattern hi, into the group whose key holds id
// in directory d: one index of each containing window's id index, slot-indexed
// first-writer bindings, the compiled argument programs, one Add per field. It
// evaluates no key and asks no ownership question — the caller resolved the
// key once for the key class (the serial fold through KeyClass.Key, a shard
// through KeyClass.Routed under the key the router evaluated) and hands this
// replica exactly the folds it owns. It neither advances the watermark nor
// closes windows: the caller brackets an event's folds with AdvanceWatermark.
//
//saql:hotpath
func (q *Query) FoldGroup(ev *event.Event, hi int, d *window.Directory, id int32, report func(error)) {
	q.stats.PatternHits++
	q.frame.Event = ev
	slots, args := q.slots[hi], q.argProgs[hi]
	for _, g := range q.winMgr.GroupFor(ev.Time, d, id) {
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
				q.fail(report, err)
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

// KeyFailed is a hit whose group key did not evaluate: err, the failure, is
// reported under this query's name; nothing folds, and the windows containing
// t open.
func (q *Query) KeyFailed(t time.Time, err error, report func(error)) {
	q.fail(report, err)
	q.winMgr.Touch(t)
}

// AdvanceWatermark advances a stateful query's watermark to t, closing any
// windows that end at or before it, without folding or touching state. A
// replica under the partitioned router does not observe every event, so the
// scheduler's apply path brackets each routed entry with it — to the stream
// watermark the router saw just before the event, then, after the entry's
// folds, to the event's own time, which is where Ingest closes — and every
// batch boundary advances to the router's running watermark. No-op for rule
// queries and for t at or behind the current watermark.
func (q *Query) AdvanceWatermark(t time.Time, report func(error)) []*Alert {
	if !q.stateful {
		return nil
	}
	if report == nil {
		report = func(error) {}
	}
	return q.closeAll(q.winMgr.Advance(t), report)
}

// Touch opens the windows containing t without folding any state: all a
// replica that owns none of an event's groups needs of it. Window existence,
// close counts and empty-snapshot cadence therefore stay identical on every
// replica — which alert history (ss[k]) backfill and checkpoint re-splitting
// both depend on. No-op for rule queries.
func (q *Query) Touch(t time.Time) {
	if q.stateful {
		q.winMgr.Touch(t)
	}
}

// Flush closes all open windows (end of stream) and returns final alerts.
func (q *Query) Flush(report func(error)) []*Alert {
	if report == nil {
		report = func(error) {}
	}
	if !q.stateful {
		return nil
	}
	return q.closeAll(q.winMgr.Flush(), report)
}
