package engine

import (
	"fmt"
	"strings"
	"time"

	"saql/internal/ast"
	"saql/internal/cluster"
	"saql/internal/event"
	"saql/internal/expr"
	"saql/internal/invariant"
	"saql/internal/matcher"
	"saql/internal/pcode"
	"saql/internal/value"
	"saql/internal/window"
)

// Hits returns the indices of the query's patterns that ev satisfies,
// including the query's global constraints. It is the expensive matching
// phase that the master–dependent-query scheme executes once per group.
func (q *Query) Hits(ev *event.Event) []int {
	if !q.global(ev) {
		return nil
	}
	var hits []int
	for i, p := range q.patterns {
		if p.Matches(ev) {
			hits = append(hits, i)
		}
	}
	return hits
}

// ResidualHits refines a master query's hit set down to the patterns this
// (stricter) query itself matches: the dependent-side half of the
// master–dependent scheme, decoupled from ingestion so it can run once in a
// shared pre-evaluation stage rather than on every shard. evals reports how
// many pattern predicates were actually evaluated (for sharing accounting).
func (q *Query) ResidualHits(ev *event.Event, masterHits []int) (hits []int, evals int) {
	if len(masterHits) == 0 || !q.global(ev) {
		return nil, 0
	}
	for _, hi := range masterHits {
		evals++
		if q.patterns[hi].Matches(ev) {
			hits = append(hits, hi)
		}
	}
	return hits, evals
}

// MatchBatch evaluates the query's patterns across a whole batch in
// pattern-major (columnar) order: one compiled pattern sweeps all events
// before the next pattern runs, keeping its programs hot in cache. Bit p of
// masks[i] is set iff pattern p matches evs[i] (and the event passed the
// global constraints). masks and globalOK are caller-owned scratch of
// len(evs); masks must arrive zeroed. Requires at most 64 patterns — the
// scheduler falls back to per-event Hits beyond that.
//
//saql:hotpath
func (q *Query) MatchBatch(evs []*event.Event, masks []uint64, globalOK []bool) {
	for i, ev := range evs {
		globalOK[i] = q.global(ev)
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
// computed (by this query or by its master in a scheduler group). report
// receives runtime evaluation errors; it may be nil.
func (q *Query) Ingest(ev *event.Event, hits []int, report func(error)) []*Alert {
	q.stats.Events++
	if report == nil {
		report = func(error) {}
	}
	if q.stateful {
		return q.ingestStateful(ev, hits, report)
	}
	return q.ingestRule(ev, hits, report)
}

// ---------------------------------------------------------------------------
// Rule-based execution
// ---------------------------------------------------------------------------

func (q *Query) ingestRule(ev *event.Event, hits []int, report func(error)) []*Alert {
	if len(hits) == 0 {
		return nil
	}
	q.stats.PatternHits += int64(len(hits))
	matches := q.seq.ObserveHits(ev, hits)
	if len(matches) == 0 {
		return nil
	}
	var alerts []*Alert
	for _, m := range matches {
		q.stats.Matches++
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
				q.stats.EvalErrors++
				report(&QueryError{Query: q.Name, Err: err})
				continue
			}
			if ok {
				fire = true
				break
			}
		}
		if !fire {
			continue
		}
		al := &Alert{
			Query:     q.Name,
			Kind:      q.Kind,
			EventTime: m.At,
			Detected:  q.now(),
			Events:    m.Events,
		}
		al.Values = q.evalReturn(env, report)
		if q.admit(al) {
			alerts = append(alerts, al)
		}
	}
	return alerts
}

// ---------------------------------------------------------------------------
// Stateful execution
// ---------------------------------------------------------------------------

func (q *Query) ingestStateful(ev *event.Event, hits []int, report func(error)) []*Alert {
	touched := false
	for _, hi := range hits {
		p := q.patterns[hi]
		var env *expr.Env
		var key string
		var progs []*pcode.Prog
		if q.fastKeys != nil {
			// Fast path: extract the group key straight from the event, so
			// shard replicas reject non-owned groups before paying for the
			// binding environment.
			key = q.fastKeys[hi](ev)
			if q.groupFilter != nil && !q.groupFilter(key) {
				touched = true
				continue
			}
			if q.fastArgs != nil {
				progs = q.fastArgs[hi]
			}
			if progs == nil {
				env = q.bindEnv(p, ev)
			}
			// With compiled argument programs the environment is not built
			// at all: the programs read the event directly, and the group's
			// representative bindings are written by bindGroupRep below.
		} else {
			env = q.bindEnv(p, ev)
			var err error
			key, err = q.groupKey(env)
			if err != nil {
				q.stats.EvalErrors++
				report(&QueryError{Query: q.Name, Err: err})
				continue
			}
			if q.groupFilter != nil && !q.groupFilter(key) {
				touched = true
				continue
			}
		}
		q.stats.PatternHits++

		for _, g := range q.winMgr.GroupFor(ev.Time, key) {
			g.Count++
			// Remember representative bindings for alert/return output.
			if env == nil {
				q.bindGroupRep(p, ev, g)
			} else {
				for k, v := range env.Entities {
					if _, ok := g.Entities[k]; !ok {
						g.Entities[k] = v
					}
				}
				for k, v := range env.Events {
					if _, ok := g.Events[k]; !ok {
						g.Events[k] = v
					}
				}
			}
			for i, arg := range q.fieldArgs {
				var v value.Value
				var err error
				if progs != nil {
					v, err = progs[i].Run(ev)
					if err == pcode.ErrBindingMismatch {
						// The event's entity types do not match the compiled
						// binding (cannot happen for events that matched this
						// pattern, but stay safe): interpret this hit instead.
						progs = nil
					}
				}
				if progs == nil {
					if env == nil {
						env = q.bindEnv(p, ev)
					}
					v, err = expr.Eval(arg, env)
				}
				if err != nil {
					q.stats.EvalErrors++
					report(&QueryError{Query: q.Name, Err: err})
					continue
				}
				if err := g.Aggs[i].Add(v); err != nil {
					q.stats.EvalErrors++
					report(&QueryError{Query: q.Name, Err: err})
				}
			}
		}
	}

	if touched {
		// By-group sharding rejected some hit: another shard owns the
		// group, but the window must still exist (and later close) here so
		// close counts and empty-snapshot cadence match the serial engine
		// on every shard.
		q.winMgr.Touch(ev.Time)
	}

	// Advance the watermark and close any finished windows. This happens
	// even for events that match no pattern: time always flows.
	var alerts []*Alert
	for _, closed := range q.winMgr.Advance(ev.Time) {
		alerts = append(alerts, q.closeWindow(closed, report)...)
	}
	return alerts
}

// bindGroupRep records the group's representative bindings straight from the
// event, reproducing exactly what copying bindEnv's maps would store: the
// object binding wins when subject and object share a variable name (bindEnv
// writes the subject first and the object over it).
func (q *Query) bindGroupRep(p *matcher.Pattern, ev *event.Event, g *window.Group) {
	if p.ObjVar != "" {
		if _, ok := g.Entities[p.ObjVar]; !ok {
			o := ev.Object
			g.Entities[p.ObjVar] = &o
		}
	}
	if p.SubjVar != "" && p.SubjVar != p.ObjVar {
		if _, ok := g.Entities[p.SubjVar]; !ok {
			s := ev.Subject
			g.Entities[p.SubjVar] = &s
		}
	}
	if p.Alias != "" {
		if _, ok := g.Events[p.Alias]; !ok {
			g.Events[p.Alias] = ev
		}
	}
}

// bindEnv builds the expression environment for one pattern's bindings.
func (q *Query) bindEnv(p *matcher.Pattern, ev *event.Event) *expr.Env {
	env := &expr.Env{Entities: map[string]*event.Entity{}, Events: map[string]*event.Event{}}
	if p.SubjVar != "" {
		s := ev.Subject
		env.Entities[p.SubjVar] = &s
	}
	if p.ObjVar != "" {
		o := ev.Object
		env.Entities[p.ObjVar] = &o
	}
	if p.Alias != "" {
		env.Events[p.Alias] = ev
	}
	return env
}

// AdvanceWatermark advances a stateful query's watermark to t, closing any
// windows that end at or before it, without folding or touching state. The
// partitioned router uses it to keep replicas' window-close cadence aligned
// with the serial engine now that a replica no longer observes every event:
// before folding a delivered event the replica first advances to the stream
// watermark the router saw just before that event, and at every batch
// boundary it advances to the router's running watermark. No-op for rule
// queries and for t at or behind the current watermark.
func (q *Query) AdvanceWatermark(t time.Time, report func(error)) []*Alert {
	if !q.stateful {
		return nil
	}
	if report == nil {
		report = func(error) {}
	}
	var alerts []*Alert
	for _, closed := range q.winMgr.Advance(t) {
		alerts = append(alerts, q.closeWindow(closed, report)...)
	}
	return alerts
}

// TouchAt opens the windows containing t without folding any state, then
// advances the watermark to t: the non-owning replica's half of stateful
// ingestion, applied when the event itself was delivered only to the shards
// owning its group state. Window existence, close counts, and empty-snapshot
// cadence therefore stay identical on every replica — which alert history
// (ss[k]) backfill and checkpoint re-splitting both depend on.
func (q *Query) TouchAt(t time.Time, report func(error)) []*Alert {
	if !q.stateful {
		return nil
	}
	q.winMgr.Touch(t)
	return q.AdvanceWatermark(t, report)
}

// Flush closes all open windows (end of stream) and returns final alerts.
func (q *Query) Flush(report func(error)) []*Alert {
	if report == nil {
		report = func(error) {}
	}
	if !q.stateful {
		return nil
	}
	var alerts []*Alert
	for _, closed := range q.winMgr.Flush() {
		alerts = append(alerts, q.closeWindow(closed, report)...)
	}
	return alerts
}

func (q *Query) groupKey(env *expr.Env) (string, error) {
	if len(q.groupBy) == 0 {
		return "", nil
	}
	var sb strings.Builder
	for i, g := range q.groupBy {
		v, err := expr.Eval(g, env)
		if err != nil {
			return "", err
		}
		if i > 0 {
			sb.WriteByte('\x1f')
		}
		sb.WriteString(v.String())
	}
	return sb.String(), nil
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

func (q *Query) closeWindow(closed window.Closed, report func(error)) []*Alert {
	q.stats.WindowsClosed++

	// 1. Snapshot groups present in this window; push empty snapshots for
	// known-but-quiet groups so ss[k] history stays contiguous.
	present := map[string]*window.Snapshot{}
	for key, g := range closed.Groups {
		snap := q.winMgr.SnapshotGroup(closed.ID, g)
		present[key] = snap
		rt, ok := q.groups[key]
		if !ok {
			rt = &groupRuntime{key: key, history: window.NewHistory(q.historyLen)}
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
			backfill := int(q.stats.WindowsClosed - 1)
			if backfill > q.historyLen-1 {
				backfill = q.historyLen - 1
			}
			for i := 0; i < backfill; i++ {
				rt.history.Push(q.winMgr.EmptySnapshot(closed.ID))
			}
			q.groups[key] = rt
		}
		rt.history.Push(snap)
		rt.idleWindows = 0
	}
	for key, rt := range q.groups {
		if _, ok := present[key]; ok {
			continue
		}
		rt.history.Push(q.winMgr.EmptySnapshot(closed.ID))
		rt.idleWindows++
		if rt.idleWindows > q.idleLimit {
			delete(q.groups, key)
		}
	}

	// 2. Clustering over the groups present in this window.
	views := map[string]*clusterView{}
	if q.hasCluster && len(present) > 0 {
		keys := make([]string, 0, len(present))
		points := make([][]float64, 0, len(present))
		for key := range present {
			rt := q.groups[key]
			env := &expr.Env{StateName: q.AST.State.Name, State: rt.history}
			v, err := expr.Eval(q.pointsExpr, env)
			if err != nil {
				q.stats.EvalErrors++
				report(&QueryError{Query: q.Name, Err: err})
				continue
			}
			f, ok := v.AsFloat()
			if !ok {
				q.stats.EvalErrors++
				report(&QueryError{Query: q.Name, Err: fmt.Errorf("cluster point for group %q is %s, not numeric", key, v.Kind())})
				continue
			}
			keys = append(keys, key)
			points = append(points, []float64{f})
		}
		if len(points) > 0 {
			res, err := cluster.Run(q.clusterName, q.clusterArgs, points, q.clusterDist)
			if err != nil {
				q.stats.EvalErrors++
				report(&QueryError{Query: q.Name, Err: err})
			} else {
				for i, key := range keys {
					views[key] = &clusterView{
						outlier: res.Outlier[i],
						label:   res.Labels[i],
						size:    res.Size(res.Labels[i]),
						valid:   true,
					}
				}
			}
		}
	}

	// 3. Per present group: invariant update, then alert evaluation.
	var alerts []*Alert
	for key, snap := range present {
		rt := q.groups[key]
		env := &expr.Env{
			Entities:  snap.Entities,
			Events:    snap.Events,
			StateName: q.AST.State.Name,
			State:     rt.history,
		}
		if cv, ok := views[key]; ok {
			env.Cluster = cv
		} else if q.hasCluster {
			env.Cluster = &clusterView{}
		}

		detecting := true
		if q.hasInv {
			// The alert must see the invariant as it stood BEFORE this
			// window is folded in: an unseen process alerts even though
			// the (online) update would absorb it. Snapshot the
			// variables, then apply updates to the live state.
			pre := make(map[string]value.Value, len(rt.inv.Vars()))
			for k, v := range rt.inv.Vars() {
				pre[k] = v
			}
			env.Vars = pre
			var newVars map[string]value.Value
			if rt.inv.ShouldUpdate() {
				newVars = map[string]value.Value{}
				for _, st := range q.AST.Invariant.Updates {
					v, err := expr.Eval(st.Expr, env)
					if err != nil {
						q.stats.EvalErrors++
						report(&QueryError{Query: q.Name, Err: err})
						continue
					}
					newVars[st.Var] = v
				}
			}
			detecting = !rt.inv.Training()
			rt.inv.Observe(newVars)
		}
		if !detecting {
			continue
		}

		for _, a := range q.alerts {
			ok, err := expr.EvalBool(a, env)
			if err != nil {
				q.stats.EvalErrors++
				report(&QueryError{Query: q.Name, Err: err})
				continue
			}
			if !ok {
				continue
			}
			al := &Alert{
				Query:     q.Name,
				Kind:      q.Kind,
				EventTime: closed.End,
				Detected:  q.now(),
				GroupKey:  key,
			}
			al.Values = q.evalReturn(env, report)
			if q.admit(al) {
				alerts = append(alerts, al)
			}
			break // one alert per group per window
		}
	}
	return alerts
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
			q.stats.EvalErrors++
			report(&QueryError{Query: q.Name, Err: err})
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
