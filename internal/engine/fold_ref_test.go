package engine

// Two folds the engine ran before, kept as test-only oracles (the role
// ndjson_ref, dbscan_ref and manager_ref play in their packages):
//
//   - the environment-based stateful fold of the time before group-by items
//     and aggregation arguments compiled totally to pcode programs, the oracle
//     of fold_diff_test.go: per hit it binds the pattern's variables into
//     name-keyed maps and evaluates the key and every argument with the
//     tree-walker;
//   - the per-event, per-member fold the slice logs replaced, the oracle of
//     slicelog_test.go: every member folds every hit the moment it arrives —
//     one window assignment per hit — and advances its watermark event by
//     event.

import (
	"strings"
	"time"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/expr"
	"saql/internal/matcher"
	"saql/internal/window"
)

// refIngestKeyed is the per-event fold of a scheduler's serial path: the
// event is offered, each hit's key is evaluated and resolved in d, a failing
// key is reported and opens its windows, every other hit folds at once
// (refFoldGroup), and the watermark advances to the event's time.
func (q *Query) refIngestKeyed(ev *event.Event, hits []int, d *window.Directory, report func(error)) []*Alert {
	if !q.stateful {
		return q.Ingest(ev, hits, report) // counts the event
	}
	q.stats.Events++
	q.refFold(ev, hits, d, report)
	return q.refAdvance(ev.Time, report)
}

// refFold folds ev's hits one by one, each keyed in d.
func (q *Query) refFold(ev *event.Event, hits []int, d *window.Directory, report func(error)) {
	for _, hi := range hits {
		key, err := q.HitKey(hi, ev)
		if err != nil {
			q.refKeyFailed(ev.Time, err, report)
			continue
		}
		q.refFoldGroup(ev, hi, d, d.Resolve(window.HashKey(key), key), report)
	}
}

// refFoldGroup folds ev, a hit of pattern hi, into the group whose key holds
// id in directory d: its own window assignment, then first-writer bindings,
// the argument programs and one Add per field in each containing window.
func (q *Query) refFoldGroup(ev *event.Event, hi int, d *window.Directory, id int32, report func(error)) {
	q.stats.PatternHits++
	q.frame.Event = ev
	slots, args := q.slots[hi], q.argProgs[hi]
	for _, g := range q.winMgr.GroupFor(ev.Time, d, id) {
		g.Count++
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

// refKeyFailed is a hit whose key did not evaluate: reported, nothing folds,
// the windows containing t open.
func (q *Query) refKeyFailed(t time.Time, err error, report func(error)) {
	q.fail(report, err)
	q.winMgr.Touch(t)
}

// refAdvance advances the watermark to t, closing what it passes: the routed
// path brackets an entry's ops with it, to the stream watermark before the
// event and to the event's time after.
func (q *Query) refAdvance(t time.Time, report func(error)) []*Alert {
	return q.closeAll(q.winMgr.Advance(t), report)
}

// refBindEnv builds the expression environment for one pattern's bindings:
// subject first, object second (so it shadows a subject of the same name),
// then the event alias.
func refBindEnv(p *matcher.Pattern, ev *event.Event) *expr.Env {
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

// refGroupKey evaluates the group-by items in env and joins their renderings.
func refGroupKey(groupBy []ast.Expr, env *expr.Env) (string, error) {
	var sb strings.Builder
	for i, g := range groupBy {
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

// refIngest is Query.Ingest on an unsharded query with the stateful fold done
// the oracle's way; matching, the window manager and everything from window
// close on are the query's own.
func (q *Query) refIngest(ev *event.Event, hits []int, report func(error)) []*Alert {
	if !q.stateful {
		return q.Ingest(ev, hits, report) // counts the event
	}
	q.stats.Events++
	args := aggArgs(q.AST, q.Info)
	touched := false
	for _, hi := range hits {
		env := refBindEnv(q.patterns[hi], ev)
		key, err := refGroupKey(q.groupBy, env)
		if err != nil {
			q.fail(report, err)
			touched = true
			continue
		}
		q.stats.PatternHits++

		slots := q.slots[hi]
		d := refDirectory(q)
		for _, g := range q.winMgr.GroupFor(ev.Time, d, d.Resolve(window.HashKey(key), key)) {
			g.Count++
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
				v, err := expr.Eval(arg, env)
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
		q.winMgr.Touch(ev.Time)
	}
	return q.closeAll(q.winMgr.Advance(ev.Time), report)
}
