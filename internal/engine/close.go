package engine

// The close-time half of query execution: what a completed multievent match
// or a closed window evaluates — alert conditions, return items, invariant
// updates, clustering points. Like fold.go's per-event half it runs
// internal/pcode programs, compiled in the close scope (compileClose), against
// the query's frame: the slot-indexed bindings of the match or of the group's
// snapshot, the group's history ring, invariant variables and clustering
// outcome are handed over as they are; nothing is materialised or looked up
// by name. fold.go comes here only to hand over a completed match or the
// windows an event closed.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"saql/internal/cluster"
	"saql/internal/invariant"
	"saql/internal/matcher"
	"saql/internal/pcode"
	"saql/internal/value"
	"saql/internal/window"
)

// alertMatch evaluates one completed multievent match and returns the alert
// it raises, if any.
func (q *Query) alertMatch(m *matcher.Match, report func(error)) *Alert {
	q.frame.Entities, q.frame.Events = m.Entities, m.Events
	// A rule query with no explicit alert clause alerts on every
	// completed match (Query 1); explicit clauses filter matches.
	if len(q.alertProgs) > 0 && !q.alertHolds(report) {
		return nil
	}
	al := &Alert{
		Query:     q.Name,
		Kind:      q.Kind,
		EventTime: m.At,
		Detected:  q.now(),
		Events:    m.Events,
		Values:    q.evalReturn(report),
	}
	if !q.admit(al) {
		return nil
	}
	return al
}

// alertHolds reports whether any alert condition holds in the query's frame;
// a condition that fails to evaluate is reported and does not hold.
//
//saql:hotpath
func (q *Query) alertHolds(report func(error)) bool {
	for i, a := range q.alertProgs {
		err := a.Run(&q.frame, q.progStack)
		if err == nil {
			holds, isBool := q.progStack[0].AsBool()
			if holds {
				return true
			}
			if isBool {
				continue
			}
			err = q.notBoolean(i)
		}
		q.fail(report, err)
	}
	return false
}

// notBoolean is the failure of alert condition i having evaluated to a value
// that is no condition.
func (q *Query) notBoolean(i int) error {
	return fmt.Errorf("expr: condition %s is %s, not boolean", q.AST.Alerts[i], q.progStack[0].Kind())
}

// closeAll runs closeWindow over the windows one Advance or Flush closed,
// then hands them back to the manager: what a close hands out — alerts,
// history snapshots — holds copies, never a closed group's storage.
func (q *Query) closeAll(closed []window.Closed, report func(error)) []*Alert {
	var alerts []*Alert
	for _, c := range closed {
		alerts = append(alerts, q.closeWindow(c, report)...)
	}
	q.winMgr.Recycle(closed)
	return alerts
}

// notClustered is the outcome of a group the window did not cluster (no
// clustering point, or too few of them).
var notClustered = pcode.Cluster{ID: -1}

// closing is one present group's share of a window close, in the close's key
// order. snap is the newest snapshot of the group's history, valid until the
// history's next push.
type closing struct {
	rt   *groupRuntime
	snap *window.Snapshot
	view pcode.Cluster
}

// closeScratch is the storage a query's closes reuse, behind one pointer so
// that a query that never closes a window carries none of it: the present
// groups' shares, the runtimes new to a close and the key-order merge's
// output (swapped with Query.byKey), and the clustering input and state. What
// it holds is valid until the query's next close.
type closeScratch struct {
	present []closing
	fresh   []*groupRuntime
	merged  []*groupRuntime
	coords  []float64   // one backing array for all points
	points  [][]float64 // one point per clustered group
	owner   []int       // point -> index into present
	cluster cluster.Scratch
}

// closeWindow snapshots the closed window's groups into their histories,
// clusters them, and evaluates invariants and alerts group by group in
// ascending key order. Its cost is one pass over the window's groups, a sort
// of those new to the query, one merge walk over the known groups, and the
// clustering's linear passes. In steady state — every group known, every
// history slot grown — it allocates only for what it hands out (alerts,
// set-valued results) and for invariant updates.
func (q *Query) closeWindow(closed window.Closed, report func(error)) []*Alert {
	present := q.pushSnapshots(closed)

	// 2. Clustering over the groups present in this window, in key order.
	if q.hasCluster && len(present) > 0 {
		q.clusterGroups(present, report)
	}

	// 3. Per present group: invariant update, then alert evaluation.
	var alerts []*Alert
	for i := range present {
		if al := q.detect(&present[i], closed.End, report); al != nil {
			alerts = append(alerts, al)
		}
	}
	clear(present) // pins no evicted group's runtime until the next close
	return alerts
}

// pushSnapshots is step 1 of a close: it counts the window, freezes every
// present group into its history — creating the runtime of a group seen for
// the first time — and pushes the window's one shared empty snapshot onto
// every known group the window did not see, evicting those idle too long. It
// returns the present groups' shares in ascending key order, in the query's
// close scratch: valid until the next close.
//
// The order costs no sort of the known keys: the query keeps its runtimes in
// key order (byKey), sorts only the runtimes this close creates, and one merge
// walk over both lists the present groups, reaches the quiet ones and drops
// the evicted.
func (q *Query) pushSnapshots(closed window.Closed) []closing {
	q.stats.WindowsClosed++
	seq := q.stats.WindowsClosed
	if q.scratch == nil {
		q.scratch = &closeScratch{}
	}
	s := q.scratch

	// Find (or create) the runtime of every group present in this window and
	// stamp it with its group. The window lists its groups in the order they
	// came; their snapshots are taken in the walk below, in key order, the
	// order the histories were made in: in first-touch order the pushes took
	// three times as long (serial hot-state profile).
	var empty *window.Snapshot
	fresh := s.fresh[:0]
	for _, g := range closed.Groups {
		rt, ok := q.groups[g.Key]
		if !ok {
			rt = &groupRuntime{key: g.Key, history: q.winMgr.NewHistory(q.historyLen)}
			if q.hasInv {
				rt.inv = invariant.NewState(q.invSpec, q.invInits)
			}
			// Backfill the history with empty states for windows that
			// closed before this group first appeared: past-window state
			// for an inactive group is zero activity, not "missing". A
			// new process that immediately moves huge volumes therefore
			// spikes against a zero moving average (how the paper's
			// time-series query catches the fresh exfiltration process),
			// while windows before the stream began stay null.
			backfill := int(seq - 1)
			if backfill > q.historyLen-1 {
				backfill = q.historyLen - 1
			}
			for k := 0; k < backfill; k++ {
				if empty == nil {
					empty = q.winMgr.EmptySnapshot(closed.ID)
				}
				rt.history.Push(empty)
			}
			q.groups[g.Key] = rt
			fresh = append(fresh, rt)
		}
		rt.group = g
		rt.idleWindows = 0
		rt.closedSeq = seq
	}
	slices.SortFunc(fresh, keyOrder)

	// Merge the new runtimes into the kept order. A present group is frozen
	// into its history — a push copies it into the history's own slot — and
	// gets its share; a quiet one gets the window's one shared empty
	// snapshot, so ss[k] history stays contiguous, and eviction once idle
	// too long.
	kept := q.byKey
	merged := slices.Grow(s.merged[:0], len(kept)+len(fresh))
	present := slices.Grow(s.present[:0], len(closed.Groups))
	for i, j := 0, 0; i < len(kept) || j < len(fresh); {
		var rt *groupRuntime
		if j == len(fresh) || i < len(kept) && kept[i].key < fresh[j].key {
			rt, i = kept[i], i+1
		} else {
			rt, j = fresh[j], j+1
		}
		if rt.closedSeq == seq {
			rt.history.PushGroup(closed.ID, rt.group)
			rt.group = nil
			present = append(present, closing{rt: rt, snap: rt.history.At(0), view: notClustered})
			merged = append(merged, rt)
			continue
		}
		if empty == nil {
			empty = q.winMgr.EmptySnapshot(closed.ID)
		}
		rt.history.Push(empty)
		rt.idleWindows++
		if rt.idleWindows > q.idleLimit {
			delete(q.groups, rt.key)
			continue
		}
		merged = append(merged, rt)
	}
	clear(kept)
	clear(fresh)
	q.byKey, s.merged, s.fresh, s.present = merged, kept[:0], fresh[:0], present
	return present
}

// sortGroups rebuilds byKey from the groups table, for a restore that folded
// runtimes into it.
func (q *Query) sortGroups() {
	clear(q.byKey)
	q.byKey = q.byKey[:0]
	for _, rt := range q.groups {
		q.byKey = append(q.byKey, rt)
	}
	slices.SortFunc(q.byKey, keyOrder)
}

// keyOrder orders group runtimes by key.
func keyOrder(a, b *groupRuntime) int { return strings.Compare(a.key, b.key) }

// clusterGroups evaluates one clustering point per present group and records
// each group's outcome in its view. Points go to the algorithm in the
// groups' key order: cluster numbering follows input order, and key order is
// the one order every run, shard and restore agrees on. The points, and the
// algorithm's result, live in the close scratch.
func (q *Query) clusterGroups(present []closing, report func(error)) {
	s := q.scratch
	coords := slices.Grow(s.coords[:0], len(present))
	points := slices.Grow(s.points[:0], len(present))
	owner := slices.Grow(s.owner[:0], len(present))
	for i := range present {
		q.frame = pcode.Frame{History: present[i].rt.history} // a point reads state only
		if err := q.pointProg.Run(&q.frame, q.progStack); err != nil {
			q.fail(report, err)
			continue
		}
		v := q.progStack[0]
		f, ok := v.AsFloat()
		if !ok {
			q.fail(report, fmt.Errorf("cluster point for group %q is %s, not numeric", present[i].rt.key, v.Kind()))
			continue
		}
		coords = append(coords, f)
		points = append(points, coords[len(coords)-1:len(coords):len(coords)])
		owner = append(owner, i)
	}
	s.coords, s.points, s.owner = coords, points, owner
	if len(points) == 0 {
		return
	}
	res, err := s.cluster.Run(q.clusterName, q.clusterArgs, points, q.clusterDist)
	if err != nil {
		q.fail(report, err)
		return
	}
	for k, i := range owner {
		present[i].view = pcode.Cluster{
			Outlier: res.Outlier[k],
			ID:      res.Labels[k],
			Size:    res.Size(res.Labels[k]),
		}
	}
}

// detect runs one present group's invariant update and alert evaluation for
// a closing window and returns the alert raised, if any.
func (q *Query) detect(c *closing, end time.Time, report func(error)) *Alert {
	f := &q.frame
	f.Entities, f.Events, f.History, f.Cluster = c.snap.Entities, c.snap.Events, c.rt.history, c.view

	detecting := true
	var newVars []value.Value
	if q.hasInv {
		// The alert must see the invariant as it stood BEFORE this window is
		// folded in: an unseen process alerts even though the (online)
		// update would absorb it. So the updates are evaluated here, against
		// the live variables, and applied (Observe) only after the alert.
		f.Vars = c.rt.inv.Vars()
		if c.rt.inv.ShouldUpdate() {
			newVars = slices.Clone(f.Vars)
			for _, u := range q.invUpdates {
				if err := u.prog.Run(f, q.progStack); err != nil {
					q.fail(report, err)
					continue
				}
				newVars[u.slot] = q.progStack[0]
			}
		}
		detecting = !c.rt.inv.Training()
	}

	var alert *Alert
	if detecting && q.alertHolds(report) {
		// One alert per group per window, whichever condition held.
		al := &Alert{
			Query:     q.Name,
			Kind:      q.Kind,
			EventTime: end,
			Detected:  q.now(),
			GroupKey:  c.rt.key,
			Values:    q.evalReturn(report),
		}
		if q.admit(al) {
			alert = al
		}
	}
	if q.hasInv {
		c.rt.inv.Observe(newVars)
	}
	return alert
}

// fail counts and reports one runtime evaluation error.
func (q *Query) fail(report func(error), err error) {
	q.stats.EvalErrors++
	report(&QueryError{Query: q.Name, Err: err})
}

// evalReturn evaluates the return clause in the query's frame.
//
//saql:hotpath
func (q *Query) evalReturn(report func(error)) []NamedValue {
	if q.returns == nil {
		return nil
	}
	out := make([]NamedValue, len(q.returns))
	for i, item := range q.returns {
		out[i].Name = item.name
		if err := item.prog.Run(&q.frame, q.progStack); err != nil {
			q.fail(report, err)
			continue
		}
		out[i].Val = q.progStack[0]
	}
	return out
}

// admit applies `return distinct` suppression and counts the alert.
func (q *Query) admit(a *Alert) bool {
	if q.distinct != nil {
		k := a.key()
		if _, seen := q.distinct[k]; seen {
			q.stats.Suppressed++
			return false
		}
		if len(q.distinct) < q.opts.MaxDistinct {
			q.distinct[k] = struct{}{}
		}
	}
	q.stats.Alerts++
	return true
}
