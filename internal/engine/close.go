package engine

// The close-time half of query execution: what a completed multievent match
// or a closed window evaluates — alert conditions, return items, invariant
// updates, clustering points — through internal/expr over name-keyed
// environments. fold.go's per-event half never comes here except to hand
// over a completed match or the windows an event closed.

import (
	"fmt"
	"time"

	"saql/internal/ast"
	"saql/internal/cluster"
	"saql/internal/event"
	"saql/internal/expr"
	"saql/internal/invariant"
	"saql/internal/matcher"
	"saql/internal/value"
	"saql/internal/window"
)

// alertMatch evaluates one completed multievent match and returns the alert
// it raises, if any.
func (q *Query) alertMatch(m *matcher.Match, report func(error)) *Alert {
	env := &expr.Env{Entities: m.Entities, Events: map[string]*event.Event{}}
	for alias, idx := range q.Info.Aliases {
		if m.Events[idx] != nil {
			env.Events[alias] = m.Events[idx]
		}
	}
	// A rule query with no explicit alert clause alerts on every
	// completed match (Query 1); explicit clauses filter matches.
	fire := len(q.alerts) == 0
	for _, a := range q.alerts {
		ok, err := expr.EvalBool(a, env)
		if err != nil {
			q.fail(report, err)
			continue
		}
		if ok {
			fire = true
			break
		}
	}
	if !fire {
		return nil
	}
	al := &Alert{
		Query:     q.Name,
		Kind:      q.Kind,
		EventTime: m.At,
		Detected:  q.now(),
		Events:    m.Events,
	}
	al.Values = q.evalReturn(env, report)
	if !q.admit(al) {
		return nil
	}
	return al
}

// closeAll runs closeWindow over the windows one Advance or Flush closed.
func (q *Query) closeAll(closed []window.Closed, report func(error)) []*Alert {
	var alerts []*Alert
	for _, c := range closed {
		alerts = append(alerts, q.closeWindow(c, report)...)
	}
	return alerts
}

// clusterView exposes one group's clustering outcome to expressions.
type clusterView struct {
	outlier bool
	label   int
	size    int
	valid   bool
}

// ClusterField implements expr.ClusterView.
func (c *clusterView) ClusterField(field string) (value.Value, bool) {
	if !c.valid {
		// Group not clustered this window (e.g. too few points).
		switch field {
		case "outlier":
			return value.Bool(false), true
		case "cluster_id":
			return value.Int(-1), true
		case "size":
			return value.Int(0), true
		}
		return value.Null, false
	}
	switch field {
	case "outlier":
		return value.Bool(c.outlier), true
	case "cluster_id":
		return value.Int(int64(c.label)), true
	case "size":
		return value.Int(int64(c.size)), true
	}
	return value.Null, false
}

// closing is one present group's share of a window close, parallel to the
// closed window's (key-ordered) groups.
type closing struct {
	rt   *groupRuntime
	snap *window.Snapshot
	view clusterView
}

// closeWindow snapshots the closed window's groups into their histories,
// clusters them, and evaluates invariants and alerts group by group in
// ascending key order. Its cost is O(n log n) in the window's groups (the
// manager's key sort and the clustering index) plus one pass over the known
// groups, and it allocates in proportion to them.
func (q *Query) closeWindow(closed window.Closed, report func(error)) []*Alert {
	q.stats.WindowsClosed++
	seq := q.stats.WindowsClosed

	// 1. Snapshot groups present in this window; push the window's one
	// shared empty snapshot for known-but-quiet groups so ss[k] history
	// stays contiguous.
	present := make([]closing, len(closed.Groups))
	var empty *window.Snapshot
	for i, g := range closed.Groups {
		snap := q.winMgr.SnapshotGroup(closed.ID, g)
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
		}
		rt.history.Push(snap)
		rt.idleWindows = 0
		rt.closedSeq = seq
		present[i] = closing{rt: rt, snap: snap}
	}
	if len(q.groups) > len(present) {
		for key, rt := range q.groups {
			if rt.closedSeq == seq {
				continue
			}
			if empty == nil {
				empty = q.winMgr.EmptySnapshot(closed.ID)
			}
			rt.history.Push(empty)
			rt.idleWindows++
			if rt.idleWindows > q.idleLimit {
				delete(q.groups, key)
			}
		}
	}

	// One environment serves every evaluation of this close.
	env := &expr.Env{StateName: q.AST.State.Name}

	// 2. Clustering over the groups present in this window, in key order.
	if q.hasCluster && len(present) > 0 {
		q.clusterGroups(env, closed.Groups, present, report)
	}

	// 3. Per present group: invariant update, then alert evaluation.
	var alerts []*Alert
	for i, g := range closed.Groups {
		c := &present[i]
		*env = expr.Env{StateName: env.StateName, State: c.rt.history}
		if q.hasCluster {
			env.Cluster = &c.view
		}
		if al := q.detect(env, c, g.Key, closed.End, report); al != nil {
			alerts = append(alerts, al)
		}
	}
	return alerts
}

// clusterGroups evaluates one clustering point per present group and records
// each group's outcome in its view. Points go to the algorithm in the
// groups' key order: cluster numbering follows input order, and key order is
// the one order every run, shard and restore agrees on.
func (q *Query) clusterGroups(env *expr.Env, groups []*window.Group, present []closing, report func(error)) {
	coords := make([]float64, 0, len(present)) // one backing array for all points
	points := make([][]float64, 0, len(present))
	owner := make([]int, 0, len(present)) // point -> index into present
	for i := range present {
		env.State = present[i].rt.history
		v, err := expr.Eval(q.pointsExpr, env)
		if err != nil {
			q.fail(report, err)
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			q.fail(report, fmt.Errorf("cluster point for group %q is %s, not numeric", groups[i].Key, v.Kind()))
			continue
		}
		coords = append(coords, f)
		points = append(points, coords[len(coords)-1:len(coords):len(coords)])
		owner = append(owner, i)
	}
	if len(points) == 0 {
		return
	}
	res, err := cluster.Run(q.clusterName, q.clusterArgs, points, q.clusterDist)
	if err != nil {
		q.fail(report, err)
		return
	}
	for k, i := range owner {
		present[i].view = clusterView{
			outlier: res.Outlier[k],
			label:   res.Labels[k],
			size:    res.Size(res.Labels[k]),
			valid:   true,
		}
	}
}

// detect runs one present group's invariant update and alert evaluation for
// a closing window and returns the alert raised, if any. env arrives with the
// group's state and cluster views; the name-keyed binding maps are
// materialised from the snapshot's slots only when an expression about to be
// evaluated reads an entity or event variable.
func (q *Query) detect(env *expr.Env, c *closing, key string, end time.Time, report func(error)) *Alert {
	bound := false
	bind := func(reads bool) {
		if reads && !bound {
			env.Entities, env.Events = q.winMgr.Bindings(c.snap)
			bound = true
		}
	}

	detecting := true
	var newVars map[string]value.Value
	if q.hasInv {
		// The alert must see the invariant as it stood BEFORE this window is
		// folded in: an unseen process alerts even though the (online)
		// update would absorb it. So the updates are evaluated here, against
		// the live variables, and applied (Observe) only after the alert.
		env.Vars = c.rt.inv.Vars()
		if c.rt.inv.ShouldUpdate() {
			bind(q.invReadsBindings)
			newVars = make(map[string]value.Value, len(q.AST.Invariant.Updates))
			for _, st := range q.AST.Invariant.Updates {
				v, err := expr.Eval(st.Expr, env)
				if err != nil {
					q.fail(report, err)
					continue
				}
				newVars[st.Var] = v
			}
		}
		detecting = !c.rt.inv.Training()
	}

	var alert *Alert
	if detecting {
		bind(q.alertReadsBindings)
		for _, a := range q.alerts {
			ok, err := expr.EvalBool(a, env)
			if err != nil {
				q.fail(report, err)
				continue
			}
			if !ok {
				continue
			}
			bind(q.returnReadsBindings)
			al := &Alert{
				Query:     q.Name,
				Kind:      q.Kind,
				EventTime: end,
				Detected:  q.now(),
				GroupKey:  key,
			}
			al.Values = q.evalReturn(env, report)
			if q.admit(al) {
				alert = al
			}
			break // one alert per group per window
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

// evalReturn evaluates the return clause in env.
func (q *Query) evalReturn(env *expr.Env, report func(error)) []NamedValue {
	if q.returnC == nil {
		return nil
	}
	out := make([]NamedValue, 0, len(q.returnC.Items))
	for _, item := range q.returnC.Items {
		name := item.Alias
		if name == "" {
			name = returnName(item.Expr)
		}
		v, err := expr.Eval(item.Expr, env)
		if err != nil {
			q.fail(report, err)
			v = value.Null
		}
		out = append(out, NamedValue{Name: name, Val: v})
	}
	return out
}

// returnName derives the display name of an unaliased return item, applying
// the paper's context-aware shortcut naming (p1 -> p1.exe_name is displayed
// as "p1").
func returnName(e ast.Expr) string { return e.String() }

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
