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
func (q *Query) Hits(ev *event.Event) []int { return q.AppendHits(nil, ev) }

// AppendHits is Hits appending to dst, for callers that consume the hits
// before their next call and so can reuse one buffer.
//
//saql:hotpath
func (q *Query) AppendHits(dst []int, ev *event.Event) []int {
	if !q.global(ev) {
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
	if len(masterHits) == 0 || !q.global(ev) {
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
				q.fail(report, err)
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

// ingestStateful folds ev's hits into their groups — per hit one key, one
// group probe per containing window, slot-indexed first-writer bindings, the
// compiled argument programs, one Add per field — then advances the
// watermark, which below the manager's deadline is two compares.
//
//saql:hotpath
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
			// at all: the programs read the event directly.
		} else {
			env = q.bindEnv(p, ev)
			var err error
			key, err = q.groupKey(env)
			if err != nil {
				q.fail(report, err)
				continue
			}
			if q.groupFilter != nil && !q.groupFilter(key) {
				touched = true
				continue
			}
		}
		q.stats.PatternHits++

		slots := q.slots[hi]
		for _, g := range q.winMgr.GroupFor(ev.Time, key) {
			g.Count++
			// Remember representative bindings for alert/return output: the
			// first event to bind a slot keeps it, and the object is offered
			// first because it shadows a subject of the same name (bindEnv
			// writes it last).
			if slots.obj >= 0 && g.Entities[slots.obj] == nil {
				g.Entities[slots.obj] = &ev.Object
			}
			if slots.subj >= 0 && g.Entities[slots.subj] == nil {
				g.Entities[slots.subj] = &ev.Subject
			}
			if slots.alias >= 0 && g.Events[slots.alias] == nil {
				g.Events[slots.alias] = ev
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
					q.fail(report, err)
					continue
				}
				if err := g.Aggs[i].Add(v); err != nil {
					q.fail(report, err)
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
	return q.closeAll(q.winMgr.Advance(ev.Time), report)
}

// closeAll runs closeWindow over the windows one Advance or Flush closed.
func (q *Query) closeAll(closed []window.Closed, report func(error)) []*Alert {
	var alerts []*Alert
	for _, c := range closed {
		alerts = append(alerts, q.closeWindow(c, report)...)
	}
	return alerts
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
	return q.closeAll(q.winMgr.Advance(t), report)
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
	return q.closeAll(q.winMgr.Flush(), report)
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
