package engine

// Folding through a slice log. The members of a variant set — the window-length
// variants an analyst keeps of one detection — fold every hit of the set, each
// into its own windows. They need not do it hit by hit: between two window
// edges of any member (a slice, window.Spec.SliceAt) every hit falls in the same
// windows of every member, and no member's window closes. So a set logs its
// hits once — event, pattern, group id — and when the watermark reaches the
// end of the slice it seals the log: the hits are bucketed by group id, and
// each member folds a group's run of hits, in arrival order, under one window
// assignment, before its watermark advances and its windows close as they
// would have hit by hit.
//
// Why it is exact: each member's group sees the same Adds in the same order as
// per-event folding, because groups are independent accumulators and a run
// keeps arrival order; it opens the same windows; and it makes the same late
// decisions, because no member's watermark crosses a window edge inside the
// log — the first observation at or past the set's due point (due) seals
// first. So a seal is legal between any two events, which is what every
// control point relies on: each member points to its log (Query.log), and
// every reader of a member's state — stats, a checkpoint, a pause, a hand-over
// — seals it before it looks; a log never holds more than sliceLogCap hits.
//
// What does move is when an aggregation argument's error is reported: at the
// seal that folds its hit, not as the hit arrives. A member reports its errors
// in the order of the hits that raised them, as hit by hit.

import (
	"cmp"
	"math"
	"slices"
	"time"

	"saql/internal/event"
	"saql/internal/window"
)

// sliceLogCap bounds a slice log: a log that reaches it folds what it holds
// (the slice goes on), so a long window keeps no more hits alive than a short
// one.
const sliceLogCap = 4096

// sliceHit is one logged hit: ev matched pattern pat, whose key holds id in the
// key class directory. 16 bytes.
type sliceHit struct {
	ev  *event.Event
	id  int32
	pat uint8
}

// hitRun is one group's hits among a log's bucketed hits: the hits the order
// entries [first, first+n) index.
type hitRun struct {
	id       int32
	first, n int32
}

// foldErr is an error a member's fold raised on the hit at index at of the
// log.
type foldErr struct {
	at  int32
	err error
}

// SliceLog is one variant set's hits since its last seal, as one scheduler
// holds them: the set's local members, the key class they fold through, and
// the slice the log is cutting. It is confined to its scheduler's lock, like
// the queries it serves.
type SliceLog struct {
	members []*Query
	active  []*Query // the members not paused at the last seal
	specs   []window.Spec
	kc      *KeyClass
	report  func(error)

	hits []sliceHit
	// [start, end) is the slice holding the furthest member watermark: its
	// hits share one window assignment. The log seals once the watermark it
	// observes (pend) reaches due: the slice's end or, for a member behind the
	// others or without a watermark, earlier.
	start, end, due int64
	pend            int64
	hasPend         bool
	// touchAt is the first touch inside the slice since the last seal: any
	// instant of the slice opens the same windows.
	touchAt time.Time
	touched bool
	// errs holds the fold errors of the member folding, until they are
	// reported.
	errs []foldErr
}

// NewSliceLog returns the empty log of a variant set whose members fold
// through key class kc, reporting evaluation errors to report, and makes it
// the log each member settles (Query.settle). The scheduler hands kc every log
// of the class (KeyClass.SetLogs).
func NewSliceLog(members []*Query, kc *KeyClass, report func(error)) *SliceLog {
	l := &SliceLog{members: members, kc: kc, report: report}
	for _, q := range members {
		q.log = l
		if spec := q.winMgr.Spec(); !slices.Contains(l.specs, spec) {
			l.specs = append(l.specs, spec)
		}
	}
	l.reset()
	return l
}

// Idle reports whether every member is paused: the set takes no hits and
// observes no time.
func (l *SliceLog) Idle() bool { return len(l.active) == 0 }

// slice returns the slice of the members' specs holding t.
func (l *SliceLog) slice(t int64) (start, end int64) {
	start, end = math.MinInt64, math.MaxInt64
	for _, s := range l.specs {
		a, b := s.SliceAt(t)
		start, end = max(start, a), min(end, b)
	}
	return start, end
}

// reset starts the next slice from the active members' watermarks. A member
// seals the log at the next edge past its watermark, or — holding windows a
// restore merged in behind it — at its first advance at all; one with no
// watermark yet seals it at the first observation, so that every later hit is
// judged late or not against a watermark, as hit by hit.
func (l *SliceLog) reset() {
	l.active = l.active[:0]
	l.start, l.end, l.due = math.MaxInt64, math.MinInt64, math.MaxInt64
	ahead, seen := int64(0), false
	for _, q := range l.members {
		if q.paused {
			continue
		}
		l.active = append(l.active, q)
		wm, ok := q.winMgr.Watermark()
		if !ok {
			l.due = math.MinInt64
			continue
		}
		_, next := l.slice(wm)
		l.due = min(l.due, next, max(q.winMgr.Deadline(), wm+1))
		if !seen || wm > ahead {
			ahead, seen = wm, true
		}
	}
	if seen {
		l.start, l.end = l.slice(ahead)
	}
}

// Add logs a hit of pattern pat by ev, whose key holds id in the class
// directory.
//
//saql:hotpath
func (l *SliceLog) Add(ev *event.Event, pat int, id int32) {
	l.hits = append(l.hits, sliceHit{ev: ev, id: id, pat: uint8(pat)})
	if len(l.hits) >= sliceLogCap {
		l.fold()
	}
}

// Touch opens the windows containing t in every active member without folding
// anything: once per slice for a touch inside it, at once for any other.
//
//saql:hotpath
func (l *SliceLog) Touch(t time.Time) {
	if ns := t.UnixNano(); l.start <= ns && ns < l.end {
		if !l.touched {
			l.touchAt, l.touched = t, true
		}
		return
	}
	for _, q := range l.active {
		q.winMgr.Touch(t)
	}
}

// KeyFailed is a hit at t whose group key failed to evaluate with err: the
// hits logged before it fold first, then every active member reports err and
// opens the windows containing t. Nothing folds for the hit itself.
func (l *SliceLog) KeyFailed(t time.Time, err error) {
	l.fold()
	for _, q := range l.active {
		q.fail(l.report, err)
		q.winMgr.Touch(t)
	}
}

// Advance observes the watermark t — the stream watermark an event was
// stamped with, or a batch's — and seals the log once the observed watermark reaches
// the due point, returning the alerts of the windows the members then close.
//
//saql:hotpath
func (l *SliceLog) Advance(t time.Time) []*Alert {
	if ns := t.UnixNano(); !l.hasPend || ns > l.pend {
		l.pend, l.hasPend = ns, true
	}
	if l.pend < l.due {
		return nil
	}
	return l.seal()
}

// Settle seals the log between two events: before anything reads, hands over
// or changes its members' state (each member settles its own log, see
// Query.settle) or the set's membership, and after a pause or a restore, to
// start the next slice from the members as they now are. It closes nothing —
// the observed watermark is short of the due point, so no member's watermark
// passes a window end — and so raises no alert.
func (l *SliceLog) Settle() { l.seal() }

// seal folds the log, advances every active member to the observed watermark,
// closing the windows it passes, and starts the next slice.
func (l *SliceLog) seal() []*Alert {
	l.fold()
	var alerts []*Alert
	if l.hasPend {
		t := time.Unix(0, l.pend)
		for _, q := range l.active {
			alerts = append(alerts, q.closeAll(q.winMgr.Advance(t), l.report)...)
		}
	}
	l.hasPend = false
	l.reset()
	return alerts
}

// fold replays the logged hits into every active member — bucketed by group
// id, one run per group in arrival order — and the slice's touch, and empties
// the log. It neither advances a watermark nor closes a window, so it may run
// at any point between two events.
func (l *SliceLog) fold() {
	if len(l.hits) > 0 {
		runs, order := l.kc.bucket(l.hits)
		d := &l.kc.dir
		for _, q := range l.active {
			for _, r := range runs {
				q.foldRun(l.hits, order[r.first:r.first+r.n], d, r.id, l.start, l.end, &l.errs)
			}
			if len(l.errs) > 0 {
				l.reportErrs(q)
			}
		}
		clear(l.hits) // the events are the members' now, or nobody's
		l.hits = l.hits[:0]
	}
	if l.touched {
		for _, q := range l.active {
			q.winMgr.Touch(l.touchAt)
		}
		l.touched = false
	}
}

// reportErrs reports member q's fold errors in the order of the hits that
// raised them — the order folding hit by hit reports them in; the runs left
// them group by group — and forgets them.
func (l *SliceLog) reportErrs(q *Query) {
	slices.SortStableFunc(l.errs, func(a, b foldErr) int { return cmp.Compare(a.at, b.at) })
	for _, e := range l.errs {
		q.fail(l.report, e.err)
	}
	clear(l.errs)
	l.errs = l.errs[:0]
}

// bucket orders hits by group id, stably, with one counting pass over the
// directory's dense ids: order lists the hits' indexes run by run, and the
// runs come in order of their groups' first hits. Both results are scratch of
// the class, good until its next bucket.
//
//saql:hotpath
func (c *KeyClass) bucket(hits []sliceHit) (runs []hitRun, order []int32) {
	if n := c.dir.Len(); len(c.runOf) < n {
		// Grown with room to spare, like the directory: past len the array
		// has only ever held zeros.
		c.runOf = slices.Grow(c.runOf, n-len(c.runOf))[:n]
	}
	runs = c.runs[:0]
	for i := range hits {
		r := c.runOf[hits[i].id]
		if r == 0 {
			runs = append(runs, hitRun{id: hits[i].id})
			r = int32(len(runs))
			c.runOf[hits[i].id] = r
		}
		runs[r-1].n++
	}
	var first int32
	for i := range runs {
		runs[i].first, first = first, first+runs[i].n
		runs[i].n = 0
	}
	if cap(c.order) < len(hits) {
		c.order = make([]int32, len(hits))
	}
	order = c.order[:len(hits)]
	for i := range hits {
		r := &runs[c.runOf[hits[i].id]-1]
		order[r.first+r.n] = int32(i)
		r.n++
	}
	for _, r := range runs {
		c.runOf[r.id] = 0
	}
	c.runs = runs
	return runs, order
}
