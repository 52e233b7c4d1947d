package engine

import (
	"strings"

	"saql/internal/ast"
	"saql/internal/event"
)

// keyFn extracts a group-by key directly from an event matched by one
// specific pattern, bypassing environment construction. It must produce
// byte-identical keys to evaluating the group-by expressions in the
// pattern's binding environment (run.go's slow path): the per-event hot
// path of stateful queries — and the shard-ownership test of the
// concurrent runtime — rides on it.
type keyFn func(ev *event.Event) string

// itemFn extracts one group-by item's string.
type itemFn func(ev *event.Event) string

// compileFastGroupKeys builds a per-pattern fast key extractor for the
// query's group-by clause, or nil if any item needs full expression
// evaluation (the env-based slow path stays authoritative, including its
// error reporting).
func compileFastGroupKeys(q *ast.Query) []keyFn {
	if q.State == nil || len(q.State.GroupBy) == 0 {
		return nil
	}
	out := make([]keyFn, len(q.Patterns))
	for i, p := range q.Patterns {
		items := make([]itemFn, 0, len(q.State.GroupBy))
		for _, g := range q.State.GroupBy {
			it := compileFastItem(g, p)
			if it == nil {
				return nil
			}
			items = append(items, it)
		}
		if len(items) == 1 {
			out[i] = keyFn(items[0])
			continue
		}
		out[i] = func(ev *event.Event) string {
			var sb strings.Builder
			for j, it := range items {
				if j > 0 {
					sb.WriteByte('\x1f')
				}
				sb.WriteString(it(ev))
			}
			return sb.String()
		}
	}
	return out
}

// compileFastItem compiles one group-by expression against one pattern's
// bindings. The case order mirrors expr.Eval exactly: the object binding
// shadows the subject (it is written to the environment last), entities
// shadow event aliases, and unbound identifiers evaluate to null.
func compileFastItem(g ast.Expr, p *ast.EventPattern) itemFn {
	switch x := g.(type) {
	case *ast.Ident:
		name := x.Name
		switch {
		case p.Object.Var == name && name != "":
			return func(ev *event.Event) string { return ev.Object.DefaultAttr() }
		case p.Subject.Var == name && name != "":
			return func(ev *event.Event) string { return ev.Subject.DefaultAttr() }
		case p.Alias == name && name != "":
			return nil // bare event alias is an evaluation error; slow path
		default:
			// Bound only by other patterns (or not at all): null here.
			return func(*event.Event) string { return "null" }
		}

	case *ast.FieldExpr:
		id, ok := x.Base.(*ast.Ident)
		if !ok {
			return nil
		}
		name, field := id.Name, x.Field
		if name == "cluster" {
			return nil // cluster fields in group-by: keep slow path
		}
		switch {
		case p.Object.Var == name && name != "":
			if !staticAttrOK(p.Object.Type, field) {
				return nil // invalid attribute errors must surface
			}
			return func(ev *event.Event) string {
				v, _ := ev.Object.Attr(field)
				return v.String()
			}
		case p.Subject.Var == name && name != "":
			if !staticAttrOK(p.Subject.Type, field) {
				return nil
			}
			return func(ev *event.Event) string {
				v, _ := ev.Subject.Attr(field)
				return v.String()
			}
		case p.Alias == name && name != "":
			if _, ok := (&event.Event{}).Attr(field); !ok {
				return nil
			}
			return func(ev *event.Event) string {
				v, _ := ev.Attr(field)
				return v.String()
			}
		default:
			return func(*event.Event) string { return "null" }
		}
	}
	return nil
}

// HitGroupKeys appends to dst the group keys ev yields for each hit pattern,
// using the compiled fast-key path. ok is false when the query has no fast
// extractor (some group-by item needs full expression evaluation, whose
// errors must surface through the shard replicas) — the partitioned router
// then falls back to delivering the event to every shard, where each replica
// evaluates the key itself.
//
//saql:hotpath
func (q *Query) HitGroupKeys(dst []string, ev *event.Event, hits []int) (keys []string, ok bool) {
	if q.fastKeys == nil {
		return dst, false
	}
	for _, hi := range hits {
		dst = append(dst, q.fastKeys[hi](ev))
	}
	return dst, true
}

// staticAttrOK reports whether attribute field exists for entity type t:
// validity depends only on the (type, name) pair, so it is decidable at
// compile time.
func staticAttrOK(t event.EntityType, field string) bool {
	e := event.Entity{Type: t}
	_, ok := e.Attr(field)
	return ok
}
