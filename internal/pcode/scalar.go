package pcode

import (
	"fmt"
	"math"
	"strings"

	"saql/internal/ast"
	"saql/internal/value"
)

// The scalar library: what xCall and xSetOp apply. Null propagates through the
// numeric functions and counts as the empty set or string elsewhere, so a
// condition over state that does not exist yet is quiet rather than an error.
// The test-only tree-walker (internal/expr) calls the same two functions.

// CallScalar invokes a built-in scalar function. Aggregation functions are
// rejected here; they are only valid inside state blocks, where the engine
// intercepts them.
func CallScalar(name string, args []value.Value) (value.Value, error) {
	switch name {
	case "abs", "sqrt", "log", "floor", "ceil":
		if len(args) != 1 {
			return value.Null, fmt.Errorf("expr: %s takes 1 argument, got %d", name, len(args))
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return value.Null, fmt.Errorf("expr: %s requires a number, got %s", name, args[0].Kind())
		}
		switch {
		case name == "abs":
			f = math.Abs(f)
		case name == "floor":
			f = math.Floor(f)
		case name == "ceil":
			f = math.Ceil(f)
		case name == "sqrt" && f < 0:
			return value.Null, fmt.Errorf("expr: sqrt of negative number %g", f)
		case name == "sqrt":
			f = math.Sqrt(f)
		case f <= 0: // log
			return value.Null, fmt.Errorf("expr: log of non-positive number %g", f)
		default:
			f = math.Log(f)
		}
		if math.IsNaN(f) {
			return value.Null, nil
		}
		return value.Float(f), nil
	case "pow":
		if len(args) != 2 {
			return value.Null, fmt.Errorf("expr: pow takes 2 arguments, got %d", len(args))
		}
		a, ok1 := args[0].AsFloat()
		b, ok2 := args[1].AsFloat()
		if (!ok1 && !args[0].IsNull()) || (!ok2 && !args[1].IsNull()) {
			return value.Null, fmt.Errorf("expr: pow requires numbers")
		}
		if !ok1 || !ok2 {
			return value.Null, nil
		}
		return value.Float(math.Pow(a, b)), nil
	case "len", "size":
		if len(args) != 1 {
			return value.Null, fmt.Errorf("expr: %s takes 1 argument, got %d", name, len(args))
		}
		switch args[0].Kind() {
		case value.KindSet:
			return value.Int(int64(args[0].SetLen())), nil
		case value.KindString:
			return value.Int(int64(len(args[0].Str()))), nil
		case value.KindNull:
			return value.Int(0), nil
		default:
			return value.Null, fmt.Errorf("expr: %s requires a set or string", name)
		}
	case "contains":
		if len(args) != 2 {
			return value.Null, fmt.Errorf("expr: contains takes 2 arguments, got %d", len(args))
		}
		switch args[0].Kind() {
		case value.KindSet:
			return value.Bool(args[0].SetContains(args[1].String())), nil
		case value.KindString:
			return value.Bool(strings.Contains(strings.ToLower(args[0].Str()), strings.ToLower(args[1].String()))), nil
		case value.KindNull:
			return value.Bool(false), nil
		default:
			return value.Null, fmt.Errorf("expr: contains requires a set or string")
		}
	case "avg", "sum", "count", "min", "max", "set", "distinct", "stddev",
		"variance", "median", "percentile", "first", "last", "mean":
		return value.Null, fmt.Errorf("expr: aggregation function %q is only valid inside a state block", name)
	}
	return value.Null, fmt.Errorf("expr: unknown function %q", name)
}

// SetOp applies a set operator (union, diff, intersect) or the membership
// test `in` to two evaluated operands.
func SetOp(op ast.BinOp, l, r value.Value) (value.Value, error) {
	if op == ast.OpIn {
		if r.Kind() == value.KindSet {
			return value.Bool(r.SetContains(l.String())), nil
		}
		if r.IsNull() {
			return value.Bool(false), nil
		}
		return value.Null, fmt.Errorf("expr: 'in' requires a set on the right, got %s", r.Kind())
	}
	// Null-tolerance: treat null as the empty set so invariant updates work
	// on the first window.
	if l.IsNull() {
		l = value.EmptySet()
	}
	if r.IsNull() {
		r = value.EmptySet()
	}
	switch op {
	case ast.OpUnion:
		return l.Union(r)
	case ast.OpDiff:
		return l.Diff(r)
	default:
		return l.Intersect(r)
	}
}
