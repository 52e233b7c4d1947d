package engine

// Folding through a slice log. The members of a variant set — the window-length
// variants an analyst keeps of one detection — fold every hit of the set, each
// into its own windows. They need not do it hit by hit: between two window
// edges of any member (a slice, window.Spec.SliceAt) every hit falls in the same
// windows of every member, and no member's window closes. So a set logs its
// hits once — event, pattern, group id — and when the watermark reaches the
// end of the slice it seals the log: the hits are bucketed by group id, in
// arrival order within each group's run, and each member folds them before its
// watermark advances and its windows close as they would have hit by hit.
//
// A seal evaluates each hit once for the whole set. The log's program table
// holds the distinct aggregation-argument programs of its members
// (pcode.Prog.Equal), per pattern; a seal runs each of them once per hit and
// writes the values, their errors and each hit's in-slice flag into columns
// laid out in run order (key-class scratch, foldChunk hits at a time). The
// seal reads the logged events in arrival order first: bucketing the hits, it
// reads each event's time and scatters it into run order beside the hit's
// index, so that the first touch of every event walks memory in the order the
// events were made, not group by group. Every member then folds the columns:
// a stretch of one group's in-slice hits of one pattern shares one window
// assignment, adds its length to Count once, binds its first hit's entities,
// and makes one AddAll per field per window over its stretch of the field's
// column.
//
// Why it is exact: each member's aggregator sees the same values in the same
// order as per-event folding — a program is a pure function of the event, so
// one evaluation serves every member whose argument compiles to it; groups are
// independent accumulators; a run keeps arrival order, and a column folds its
// stretch in that order, stopping at a failed value and going on after it,
// which is what one Add per hit did. A member opens the same windows, and it
// makes the same late decisions, because no member's watermark crosses a
// window edge inside the log — the first observation at or past the set's due
// point (due) seals first. So a seal is legal between any two events, which is
// what every control point relies on: each member points to its log
// (Query.log), and every reader of a member's state — stats, a checkpoint, a
// pause, a hand-over — seals it before it looks; a log never holds more than
// sliceLogCap hits.
//
// What does move is when an aggregation argument's error is reported: at the
// seal that folds its hit, not as the hit arrives. A member reports its errors
// in the order of the hits that raised them — and for one hit by window, then
// field — as hit by hit; an argument that fails is counted once per window
// containing its hit, as hit by hit.

import (
	"cmp"
	"math"
	"slices"
	"time"

	"saql/internal/event"
	"saql/internal/pcode"
	"saql/internal/value"
	"saql/internal/window"
)

// sliceLogCap bounds a slice log: a log that reaches it folds what it holds
// (the slice goes on), so a long window keeps no more hits alive than a short
// one.
const sliceLogCap = 4096

// foldChunk is how many of a seal's hits, in run order, its columns hold: the
// columns are scratch of a fixed size, and every member folds one chunk
// before the next is evaluated.
const foldChunk = 256

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

// argProg is a program of a log's table and the member whose frame and
// operand stack run it.
type argProg struct {
	prog *pcode.Prog
	q    *Query
}

// foldRow is a logged hit as a seal's columns hold it: the hit at index at of
// the log, and whether its time lies inside the log's slice. A row that
// starts a stretch — the longest run of one group's in-slice hits of one
// pattern, or a hit outside the slice on its own — holds the index of the
// row after the stretch in end.
type foldRow struct {
	ev  *event.Event
	at  int32
	id  int32
	end int32
	pat uint8
	in  bool
}

// columns is one chunk of a sealing log's hits in run order, as every active
// member folds it. Column k of the log's program table holds, for row p, the
// value and the evaluation error of the table's k-th program of the row's
// pattern at k*foldChunk+p; bad[k] says whether any row's failed.
type columns struct {
	rows []foldRow
	vals []value.Value
	errs []error
	bad  []bool
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
	// progs[pattern] are the distinct argument programs of the members' hits
	// of that pattern: each member's field reads the column its Query.argCols
	// names. width is the longest list.
	progs [][]argProg
	width int

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
	// errs holds each active member's fold errors until they are reported.
	errs [][]foldErr
}

// NewSliceLog returns the empty log of a variant set whose members fold
// through key class kc, reporting evaluation errors to report, and makes it
// the log each member settles (Query.settle). The scheduler hands kc every log
// of the class (KeyClass.SetLogs).
func NewSliceLog(members []*Query, kc *KeyClass, report func(error)) *SliceLog {
	l := &SliceLog{members: members, kc: kc, report: report}
	for _, q := range members {
		q.log = l
		if spec := q.WindowSpec(); !slices.Contains(l.specs, spec) {
			l.specs = append(l.specs, spec)
		}
		l.tabulate(q)
	}
	l.reset()
	return l
}

// tabulate enters member q's argument programs in the log's table, each
// program once however many members compile an argument to it, and points
// q's fields at their columns.
func (l *SliceLog) tabulate(q *Query) {
	q.argCols = make([][]int32, len(q.argProgs))
	for pat, args := range q.argProgs {
		if pat == len(l.progs) {
			l.progs = append(l.progs, nil)
		}
		for _, p := range args {
			k := slices.IndexFunc(l.progs[pat], func(a argProg) bool { return a.prog.Equal(p) })
			if k < 0 {
				k = len(l.progs[pat])
				l.progs[pat] = append(l.progs[pat], argProg{prog: p, q: q})
				l.width = max(l.width, k+1)
			}
			q.argCols[pat] = append(q.argCols[pat], int32(k))
		}
	}
}

// Idle reports whether every member is paused: the set takes no hits and
// observes no time.
func (l *SliceLog) Idle() bool { return len(l.active) == 0 }

// Due is the point, in Unix nanoseconds, at which an observed watermark seals
// the log: Advance below it only records the watermark. It moves only when the
// log seals.
func (l *SliceLog) Due() int64 { return l.due }

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
		_, next := window.Slice(l.specs, wm)
		l.due = min(l.due, next, max(q.winMgr.Deadline(), wm+1))
		if !seen || wm > ahead {
			ahead, seen = wm, true
		}
	}
	if seen {
		l.start, l.end = window.Slice(l.specs, ahead)
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
// id, one run per group in arrival order, evaluated into columns a chunk at a
// time — and the slice's touch, and empties the log. It neither advances a
// watermark nor closes a window, so it may run at any point between two
// events.
//
//saql:hotpath
func (l *SliceLog) fold() {
	if len(l.hits) > 0 {
		order, times := l.kc.bucket(l.hits)
		c := l.kc.columns(l.width)
		for len(l.errs) < len(l.active) {
			l.errs = append(l.errs, nil)
		}
		for lo := 0; lo < len(order); lo += foldChunk {
			hi := min(lo+foldChunk, len(order))
			l.evaluate(c, order[lo:hi], times[lo:hi])
			for i, q := range l.active {
				q.foldColumns(c, &l.kc.dir, &l.errs[i])
			}
		}
		clear(c.rows) // the events are the members' now, or nobody's
		clear(l.hits)
		l.hits = l.hits[:0]
		for i, q := range l.active {
			if len(l.errs[i]) > 0 {
				l.reportErrs(q, &l.errs[i])
			}
		}
	}
	if l.touched {
		for _, q := range l.active {
			q.winMgr.Touch(l.touchAt)
		}
		l.touched = false
	}
}

// evaluate fills c with the logged hits order lists, in that order, at the
// event times bucket read for them: a row per hit, the stretches they form,
// and every program of the table for the hit's pattern run once on it.
//
//saql:hotpath
func (l *SliceLog) evaluate(c *columns, order []int32, times []int64) {
	c.rows = c.rows[:len(order)]
	clear(c.bad)
	stretch := 0
	for p, i := range order {
		h := &l.hits[i]
		t := times[p]
		r := &c.rows[p]
		*r = foldRow{ev: h.ev, at: i, id: h.id, pat: h.pat, in: l.start <= t && t < l.end}
		if p > 0 {
			if prev := &c.rows[p-1]; !r.in || !prev.in || r.id != prev.id || r.pat != prev.pat {
				c.rows[stretch].end, stretch = int32(p), p
			}
		}
		for k, a := range l.progs[h.pat] {
			a.q.frame.Event = h.ev
			err := a.prog.Run(&a.q.frame, a.q.progStack)
			at := k*foldChunk + p
			c.vals[at], c.errs[at] = a.q.progStack[0], err
			if err != nil {
				c.bad[k] = true
			}
		}
	}
	if len(order) > 0 {
		c.rows[stretch].end = int32(len(order))
	}
}

// reportErrs reports member q's fold errors in the order of the hits that
// raised them — the order folding hit by hit reports them in; the columns
// left them group by group — and forgets them.
func (l *SliceLog) reportErrs(q *Query, errs *[]foldErr) {
	slices.SortStableFunc(*errs, func(a, b foldErr) int { return cmp.Compare(a.at, b.at) })
	for _, e := range *errs {
		q.fail(l.report, e.err)
	}
	clear(*errs)
	*errs = (*errs)[:0]
}

// bucket orders hits by group id, stably, with one counting pass over the
// directory's dense ids: order lists the hits' indexes run by run — a group's
// hits together, in arrival order — and the runs come in order of their
// groups' first hits. times[p] is the event time of hit order[p]: the seal's
// first read of each logged event, made here in arrival order — the order
// the events were made in, so memory serves it sequentially — rather than
// in run order. Both are scratch of the class, good until its next bucket.
//
//saql:hotpath
func (c *KeyClass) bucket(hits []sliceHit) (order []int32, times []int64) {
	if n := c.dir.Len(); len(c.runOf) < n {
		// Grown with room to spare, like the directory: past len the array
		// has only ever held zeros.
		c.runOf = slices.Grow(c.runOf, n-len(c.runOf))[:n]
	}
	runs := c.runs[:0]
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
		c.order, c.times = make([]int32, len(hits)), make([]int64, len(hits))
	}
	order, times = c.order[:len(hits)], c.times[:len(hits)]
	for i := range hits {
		r := &runs[c.runOf[hits[i].id]-1]
		order[r.first+r.n] = int32(i)
		times[r.first+r.n] = hits[i].ev.Time.UnixNano()
		r.n++
	}
	for _, r := range runs {
		c.runOf[r.id] = 0
	}
	c.runs = runs
	return order, times
}

// columns returns the class's column scratch, with room for a chunk of a log
// whose program table is width programs wide: grown at a log's first seal,
// then reused.
func (c *KeyClass) columns(width int) *columns {
	if cap(c.cols.rows) == 0 || cap(c.cols.bad) < width {
		c.cols = columns{
			rows: make([]foldRow, 0, foldChunk),
			vals: make([]value.Value, width*foldChunk),
			errs: make([]error, width*foldChunk),
			bad:  make([]bool, width),
		}
	}
	c.cols.bad = c.cols.bad[:width]
	return &c.cols
}
