// Package expr is the AST tree-walker the engine evaluated expressions with
// before internal/pcode compiled them all: it evaluates a SAQL expression
// against a name-keyed environment of bound entity variables, event aliases,
// sliding-window states, invariant variables, and clustering results. It is
// the oracle the compiled programs are held to — value and error string —
// by the differential suites of internal/pcode and internal/engine. Only
// tests import it; CI checks that no shipped binary depends on it.
//
// Null propagation follows SAQL's tolerant semantics: comparing against a
// missing value (e.g. ss[2] before three windows have closed) is false
// rather than an error, and arithmetic over null yields null, so alert
// conditions simply do not fire until enough state exists. The scalar
// library (calls, set operators) is the evaluator's own, pcode.CallScalar and
// pcode.SetOp; everything else is written here a second time, on purpose.
package expr

import (
	"fmt"
	"math"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/pcode"
	"saql/internal/value"
)

// StateView resolves sliding-window state fields: histIndex 0 is the current
// (most recently closed) window, 1 the one before it, and so on.
type StateView interface {
	StateField(histIndex int, field string) (value.Value, bool)
}

// ClusterView resolves cluster.* fields for the group under evaluation
// ("outlier", "cluster_id", "size").
type ClusterView interface {
	ClusterField(field string) (value.Value, bool)
}

// Env is the evaluation environment. Any component may be nil/empty; lookups
// then miss and resolve to null per SAQL tolerance rules.
type Env struct {
	Entities  map[string]*event.Entity // entity var -> bound entity
	Events    map[string]*event.Event  // event alias -> bound event
	StateName string                   // e.g. "ss"
	State     StateView
	Vars      map[string]value.Value // invariant variables
	Cluster   ClusterView
}

// Eval evaluates e in env.
func Eval(e ast.Expr, env *Env) (value.Value, error) {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Val, nil

	case *ast.Ident:
		return evalIdent(x, env)

	case *ast.FieldExpr:
		return evalField(x, env)

	case *ast.IndexExpr:
		return value.Null, fmt.Errorf("expr: state index %s must be followed by a field access", x)

	case *ast.CallExpr:
		return evalCall(x, env)

	case *ast.UnaryExpr:
		v, err := Eval(x.X, env)
		if err != nil {
			return value.Null, err
		}
		switch x.Op {
		case '!':
			b, ok := v.AsBool()
			if !ok {
				return value.Null, fmt.Errorf("expr: ! requires a boolean, got %s", v.Kind())
			}
			return value.Bool(!b), nil
		case '-':
			if v.IsNull() {
				return value.Null, nil
			}
			return v.Neg()
		default:
			return value.Null, fmt.Errorf("expr: unknown unary operator %q", string(x.Op))
		}

	case *ast.CardExpr:
		v, err := Eval(x.X, env)
		if err != nil {
			return value.Null, err
		}
		switch v.Kind() {
		case value.KindSet:
			return value.Int(int64(v.SetLen())), nil
		case value.KindInt:
			iv := v.IntVal()
			if iv < 0 {
				iv = -iv
			}
			return value.Int(iv), nil
		case value.KindFloat:
			return value.Float(math.Abs(v.FloatVal())), nil
		case value.KindNull:
			return value.Int(0), nil
		default:
			return value.Null, fmt.Errorf("expr: |...| requires a set or number, got %s", v.Kind())
		}

	case *ast.BinaryExpr:
		return evalBinary(x, env)
	}
	return value.Null, fmt.Errorf("expr: unsupported expression %T", e)
}

// EvalBool evaluates e and coerces the result to a boolean condition.
func EvalBool(e ast.Expr, env *Env) (bool, error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	b, ok := v.AsBool()
	if !ok {
		return false, fmt.Errorf("expr: condition %s is %s, not boolean", e, v.Kind())
	}
	return b, nil
}

func evalIdent(x *ast.Ident, env *Env) (value.Value, error) {
	// Invariant variables shadow everything else.
	if env.Vars != nil {
		if v, ok := env.Vars[x.Name]; ok {
			return v, nil
		}
	}
	// Context-aware shortcut: a bare entity variable means its default
	// attribute (p1 -> p1.exe_name, i1 -> i1.dstip, f1 -> f1.name).
	if env.Entities != nil {
		if ent, ok := env.Entities[x.Name]; ok {
			return value.String(ent.DefaultAttr()), nil
		}
	}
	if env.Events != nil {
		if _, ok := env.Events[x.Name]; ok {
			return value.Null, fmt.Errorf("expr: event alias %q is not a value; access an attribute like %s.amount", x.Name, x.Name)
		}
	}
	if x.Name == env.StateName {
		return value.Null, fmt.Errorf("expr: state %q is not a value; access a field like %s.field", x.Name, x.Name)
	}
	// Unbound identifiers resolve to null: the entity may simply not be
	// bound for this group/window.
	return value.Null, nil
}

func evalField(x *ast.FieldExpr, env *Env) (value.Value, error) {
	switch base := x.Base.(type) {
	case *ast.Ident:
		name := base.Name
		if name == "cluster" {
			if env.Cluster == nil {
				return value.Null, nil
			}
			if v, ok := env.Cluster.ClusterField(x.Field); ok {
				return v, nil
			}
			return value.Null, fmt.Errorf("expr: unknown cluster field %q", x.Field)
		}
		if name == env.StateName && env.State != nil {
			if v, ok := env.State.StateField(0, x.Field); ok {
				return v, nil
			}
			return value.Null, nil
		}
		if env.Entities != nil {
			if ent, ok := env.Entities[name]; ok {
				if v, ok := EntityAttr(ent, x.Field); ok {
					return v, nil
				}
				return value.Null, fmt.Errorf("expr: entity %q (%s) has no attribute %q", name, ent.Type, x.Field)
			}
		}
		if env.Events != nil {
			if ev, ok := env.Events[name]; ok {
				if v, ok := EventAttr(ev, x.Field); ok {
					return v, nil
				}
				return value.Null, fmt.Errorf("expr: event %q has no attribute %q", name, x.Field)
			}
		}
		// Unbound base: tolerate as null (group may not bind this var).
		return value.Null, nil

	case *ast.IndexExpr:
		id, ok := base.Base.(*ast.Ident)
		if !ok {
			return value.Null, fmt.Errorf("expr: cannot index %s", base.Base)
		}
		if id.Name != env.StateName {
			return value.Null, fmt.Errorf("expr: %q is not the state variable (%q)", id.Name, env.StateName)
		}
		if env.State == nil {
			return value.Null, nil
		}
		if v, ok := env.State.StateField(base.Index, x.Field); ok {
			return v, nil
		}
		return value.Null, nil

	default:
		return value.Null, fmt.Errorf("expr: unsupported field base %T", x.Base)
	}
}

func evalCall(x *ast.CallExpr, env *Env) (value.Value, error) {
	args := make([]value.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := Eval(a, env)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	return pcode.CallScalar(x.Func, args)
}

func evalBinary(x *ast.BinaryExpr, env *Env) (value.Value, error) {
	// Short-circuit logical operators.
	switch x.Op {
	case ast.OpAnd, ast.OpOr:
		lv, err := Eval(x.Left, env)
		if err != nil {
			return value.Null, err
		}
		lb, ok := lv.AsBool()
		if !ok {
			return value.Null, fmt.Errorf("expr: %s requires boolean operands, got %s", x.Op, lv.Kind())
		}
		if x.Op == ast.OpAnd && !lb {
			return value.Bool(false), nil
		}
		if x.Op == ast.OpOr && lb {
			return value.Bool(true), nil
		}
		rv, err := Eval(x.Right, env)
		if err != nil {
			return value.Null, err
		}
		rb, ok := rv.AsBool()
		if !ok {
			return value.Null, fmt.Errorf("expr: %s requires boolean operands, got %s", x.Op, rv.Kind())
		}
		return value.Bool(rb), nil
	}

	lv, err := Eval(x.Left, env)
	if err != nil {
		return value.Null, err
	}
	rv, err := Eval(x.Right, env)
	if err != nil {
		return value.Null, err
	}

	switch x.Op {
	case ast.OpEq, ast.OpNe:
		eq := value.EqualFold(lv, rv)
		if x.Op == ast.OpNe {
			eq = !eq
		}
		return value.Bool(eq), nil

	case ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		// Ordered comparison against null is false, never an error:
		// this is what makes ss[2]-referencing alerts silent before
		// enough windows exist.
		if lv.IsNull() || rv.IsNull() {
			return value.Bool(false), nil
		}
		c, err := lv.Compare(rv)
		if err != nil {
			return value.Null, err
		}
		switch x.Op {
		case ast.OpLt:
			return value.Bool(c < 0), nil
		case ast.OpLe:
			return value.Bool(c <= 0), nil
		case ast.OpGt:
			return value.Bool(c > 0), nil
		default:
			return value.Bool(c >= 0), nil
		}

	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpMod:
		if lv.IsNull() || rv.IsNull() {
			return value.Null, nil
		}
		var op byte
		switch x.Op {
		case ast.OpAdd:
			op = '+'
		case ast.OpSub:
			op = '-'
		case ast.OpMul:
			op = '*'
		case ast.OpDiv:
			op = '/'
		default:
			op = '%'
		}
		return lv.Arith(op, rv)

	case ast.OpUnion, ast.OpDiff, ast.OpIntersect, ast.OpIn:
		return pcode.SetOp(x.Op, lv, rv)
	}
	return value.Null, fmt.Errorf("expr: unsupported binary operator %s", x.Op)
}

// EntityAttr resolves a SAQL attribute name on the entity by name at run time
// — the oracle's own copy of the attribute table, which the production
// resolver (pcode) is checked against. The second result reports whether the
// attribute exists for this entity type.
func EntityAttr(e *event.Entity, name string) (value.Value, bool) {
	switch e.Type {
	case event.EntityProcess:
		switch name {
		case "exe_name", "exename", "exe", "name":
			return value.String(e.ExeName), true
		case "pid":
			return value.Int(int64(e.PID)), true
		case "user", "username":
			return value.String(e.User), true
		case "cmdline", "cmd", "args":
			return value.String(e.CmdLine), true
		}
	case event.EntityFile:
		switch name {
		case "name", "path", "filename", "file_name":
			return value.String(e.Path), true
		case "basename":
			return value.String(baseName(e.Path)), true
		}
	case event.EntityNetConn:
		switch name {
		case "srcip", "src_ip", "sip":
			return value.String(e.SrcIP), true
		case "dstip", "dst_ip", "dip":
			return value.String(e.DstIP), true
		case "sport", "src_port", "srcport":
			return value.Int(int64(e.SrcPort)), true
		case "dport", "dst_port", "dstport":
			return value.Int(int64(e.DstPort)), true
		case "protocol", "proto":
			return value.String(e.Protocol), true
		}
	}
	return value.Null, false
}

func baseName(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' || p[i] == '\\' {
			return p[i+1:]
		}
	}
	return p
}

// EventAttr resolves event-level attributes: amount, agentid, time (unix
// nanos), id and optype. Entity attributes are resolved through the bound
// entity variables, not through the event.
func EventAttr(ev *event.Event, name string) (value.Value, bool) {
	switch name {
	case "amount", "amt", "bytes":
		return value.Float(ev.Amount), true
	case "agentid", "agent_id", "host":
		return value.String(ev.AgentID), true
	case "time", "ts", "timestamp":
		return value.Int(ev.Time.UnixNano()), true
	case "id":
		return value.Int(int64(ev.ID)), true
	case "optype", "op", "operation":
		return value.String(ev.Op.String()), true
	}
	return value.Null, false
}
