package pcode_test

// The interpreting predicate closures the engine evaluated patterns and
// global constraints with before EntityProg/EventProg became total, kept as
// the test-only oracle of the differential suite (the role ndjson_ref,
// dbscan_ref and manager_ref play in their packages). They read attributes
// through the oracle's expr.EntityAttr / expr.EventAttr and compare value.Values; the
// compiled programs must agree with them on every entity and event.

import (
	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/expr"
	"saql/internal/value"
)

// refEntityPred is the interpreting form of an entity pattern.
func refEntityPred(p *ast.EntityPattern) func(*event.Entity) bool {
	return func(e *event.Entity) bool {
		if e.Type != p.Type {
			return false
		}
		for _, c := range p.Constraints {
			var got value.Value
			if c.Attr == "" {
				got = value.String(e.DefaultAttr())
			} else {
				v, ok := expr.EntityAttr(e, c.Attr)
				if !ok {
					return false
				}
				got = v
			}
			if !refCompare(got, c.Op, c.Val.Val) {
				return false
			}
		}
		return true
	}
}

// refGlobalPred is the interpreting form of a query's global constraints.
func refGlobalPred(globals []*ast.Constraint) func(*event.Event) bool {
	return func(ev *event.Event) bool {
		for _, g := range globals {
			got, ok := expr.EventAttr(ev, g.Attr)
			if !ok || !refCompare(got, g.Op, g.Val.Val) {
				return false
			}
		}
		return true
	}
}

// refCompare applies a constraint comparison, with % wildcards on string
// equality (SQL-LIKE semantics, as in ["%osql.exe"]).
func refCompare(got value.Value, op ast.CompareOp, want value.Value) bool {
	switch op {
	case ast.CmpEq, ast.CmpNe:
		var eq bool
		if got.Kind() == value.KindString && want.Kind() == value.KindString {
			eq = value.WildcardMatch(want.Str(), got.Str())
		} else {
			eq = got.Equal(want)
		}
		return eq == (op == ast.CmpEq)
	default:
		c, err := got.Compare(want)
		if err != nil {
			return false
		}
		switch op {
		case ast.CmpLt:
			return c < 0
		case ast.CmpLe:
			return c <= 0
		case ast.CmpGt:
			return c > 0
		case ast.CmpGe:
			return c >= 0
		}
		return false
	}
}
