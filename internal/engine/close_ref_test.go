package engine

// The environment-based close the engine ran before alert conditions, return
// items, invariant updates and clustering points compiled to pcode programs,
// kept as the test-only oracle of close_diff_test.go (the role fold_ref_test.go
// plays for the per-event half): per completed match and per present group it
// materialises the slot-indexed bindings into name-keyed maps, wraps the
// history ring and the clustering outcome in by-name views, and evaluates the
// clauses' ASTs with the tree-walker.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"saql/internal/cluster"
	"saql/internal/event"
	"saql/internal/expr"
	"saql/internal/matcher"
	"saql/internal/value"
	"saql/internal/window"
)

// refStateView resolves ss[k].field by name over the history ring.
type refStateView struct {
	h      *window.History
	fields []string
}

func (s refStateView) StateField(k int, field string) (value.Value, bool) {
	if i := slices.Index(s.fields, field); i >= 0 {
		return s.h.Field(k, i), true
	}
	return value.Null, true
}

// refClusterView exposes one group's clustering outcome by field name.
type refClusterView struct {
	outlier bool
	label   int
	size    int
	valid   bool
}

func (c *refClusterView) ClusterField(field string) (value.Value, bool) {
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

// refBindings materialises a snapshot's bindings as name-keyed maps.
func (q *Query) refBindings(s *window.Snapshot) (map[string]*event.Entity, map[string]*event.Event) {
	entities := map[string]*event.Entity{}
	for name := range q.Info.EntityVars {
		if slot := q.winMgr.EntitySlot(name); slot < len(s.Entities) && s.Entities[slot] != nil {
			entities[name] = s.Entities[slot]
		}
	}
	events := map[string]*event.Event{}
	for alias := range q.Info.Aliases {
		if slot := q.winMgr.EventSlot(alias); slot < len(s.Events) && s.Events[slot] != nil {
			events[alias] = s.Events[slot]
		}
	}
	return entities, events
}

// refAlertMatch is alertMatch the oracle's way.
func (q *Query) refAlertMatch(m *matcher.Match, report func(error)) *Alert {
	env := &expr.Env{Entities: map[string]*event.Entity{}, Events: map[string]*event.Event{}}
	for slot, name := range q.seq.Vars() {
		if m.Entities[slot] != nil {
			env.Entities[name] = m.Entities[slot]
		}
	}
	for alias, idx := range q.Info.Aliases {
		if m.Events[idx] != nil {
			env.Events[alias] = m.Events[idx]
		}
	}
	fire := len(q.AST.Alerts) == 0
	for _, a := range q.AST.Alerts {
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
	al.Values = q.refEvalReturn(env, report)
	if !q.admit(al) {
		return nil
	}
	return al
}

// refClosing is one present group's share of a close, with the oracle's view
// of its clustering outcome.
type refClosing struct {
	closing
	view refClusterView
}

// refCloseWindow is closeWindow with steps 2 and 3 done the oracle's way; the
// snapshots and histories of step 1 are the query's own. It walks the closed
// window's groups in key order, sorted here: the window lists them in no
// order, and pushSnapshots returns the present groups in key order.
func (q *Query) refCloseWindow(closed window.Closed, report func(error)) []*Alert {
	pushed := q.pushSnapshots(closed)
	closed.Groups = slices.SortedFunc(slices.Values(closed.Groups), func(a, b *window.Group) int { return strings.Compare(a.Key, b.Key) })
	present := make([]refClosing, len(pushed))
	for i, c := range pushed {
		present[i].closing = c
	}
	env := &expr.Env{StateName: q.AST.State.Name}
	if q.hasCluster && len(present) > 0 {
		q.refClusterGroups(env, closed.Groups, present, report)
	}
	var alerts []*Alert
	for i, g := range closed.Groups {
		c := &present[i]
		*env = expr.Env{StateName: env.StateName, State: refStateView{c.rt.history, q.Info.StateFields}}
		if q.hasCluster {
			env.Cluster = &c.view
		}
		if al := q.refDetect(env, c, g.Key, closed.End, report); al != nil {
			alerts = append(alerts, al)
		}
	}
	return alerts
}

func (q *Query) refClusterGroups(env *expr.Env, groups []*window.Group, present []refClosing, report func(error)) {
	var points [][]float64
	var owner []int
	for i := range present {
		env.State = refStateView{present[i].rt.history, q.Info.StateFields}
		v, err := expr.Eval(q.AST.Cluster.Points, env)
		if err != nil {
			q.fail(report, err)
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			q.fail(report, fmt.Errorf("cluster point for group %q is %s, not numeric", groups[i].Key, v.Kind()))
			continue
		}
		points = append(points, []float64{f})
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
		present[i].view = refClusterView{
			outlier: res.Outlier[k],
			label:   res.Labels[k],
			size:    res.Size(res.Labels[k]),
			valid:   true,
		}
	}
}

func (q *Query) refDetect(env *expr.Env, c *refClosing, key string, end time.Time, report func(error)) *Alert {
	env.Entities, env.Events = q.refBindings(c.snap)

	detecting := true
	var newVars []value.Value
	if q.hasInv {
		env.Vars = map[string]value.Value{}
		for i, name := range q.Info.InvariantVars {
			env.Vars[name] = c.rt.inv.Vars()[i]
		}
		if c.rt.inv.ShouldUpdate() {
			newVars = slices.Clone(c.rt.inv.Vars())
			for _, st := range q.AST.Invariant.Updates {
				v, err := expr.Eval(st.Expr, env)
				if err != nil {
					q.fail(report, err)
					continue
				}
				newVars[slices.Index(q.Info.InvariantVars, st.Var)] = v
			}
		}
		detecting = !c.rt.inv.Training()
	}

	var alert *Alert
	if detecting {
		for _, a := range q.AST.Alerts {
			ok, err := expr.EvalBool(a, env)
			if err != nil {
				q.fail(report, err)
				continue
			}
			if !ok {
				continue
			}
			al := &Alert{
				Query:     q.Name,
				Kind:      q.Kind,
				EventTime: end,
				Detected:  q.now(),
				GroupKey:  key,
			}
			al.Values = q.refEvalReturn(env, report)
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

// refEvalReturn evaluates the return clause in env, naming every unaliased
// item by its rendering.
func (q *Query) refEvalReturn(env *expr.Env, report func(error)) []NamedValue {
	if q.AST.Return == nil {
		return nil
	}
	out := make([]NamedValue, 0, len(q.AST.Return.Items))
	for _, item := range q.AST.Return.Items {
		name := item.Alias
		if name == "" {
			name = item.Expr.String()
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

// refCloseIngest is Query.Ingest on an unsharded query with everything a
// completed match or a closed window evaluates done the oracle's way;
// matching, the fold and the window manager are the query's own.
func (q *Query) refCloseIngest(ev *event.Event, hits []int, report func(error)) []*Alert {
	q.stats.Events++
	var alerts []*Alert
	if !q.stateful {
		if len(hits) == 0 {
			return nil
		}
		q.stats.PatternHits += int64(len(hits))
		for _, m := range q.seq.ObserveHits(ev, hits) {
			q.stats.Matches++
			if al := q.refAlertMatch(m, report); al != nil {
				alerts = append(alerts, al)
			}
		}
		return alerts
	}
	q.refFold(ev, hits, refDirectory(q), report)
	return q.refCloseAll(q.winMgr.Advance(ev.Time), report)
}

// refDirs holds the directory each oracle query keys its groups in.
var refDirs = map[*Query]*window.Directory{}

func refDirectory(q *Query) *window.Directory {
	d := refDirs[q]
	if d == nil {
		d = new(window.Directory)
		refDirs[q] = d
	}
	return d
}

func (q *Query) refCloseAll(closed []window.Closed, report func(error)) []*Alert {
	var alerts []*Alert
	for _, c := range closed {
		alerts = append(alerts, q.refCloseWindow(c, report)...)
	}
	return alerts
}
