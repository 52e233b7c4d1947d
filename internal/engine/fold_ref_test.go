package engine

// The environment-based stateful fold the engine ran before group-by items
// and aggregation arguments compiled totally to pcode programs, kept as the
// test-only oracle of fold_diff_test.go (the role ndjson_ref, dbscan_ref and
// manager_ref play in their packages): per hit it binds the pattern's
// variables into name-keyed maps and evaluates the key and every argument
// with the tree-walker.

import (
	"strings"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/expr"
	"saql/internal/matcher"
	"saql/internal/window"
)

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
	q.stats.Events++
	if !q.stateful {
		return q.ingestRule(ev, hits, report)
	}
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
		d := q.ownClass().Directory()
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
