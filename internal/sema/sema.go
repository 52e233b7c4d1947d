// Package sema performs semantic analysis over parsed SAQL queries: name
// resolution (entity variables, event aliases, state names, invariant
// variables), attribute validity per entity type, aggregation-call checking
// in state blocks, state history bounds, temporal-clause validity, and
// cluster specification validation. The engine refuses to compile a query
// that has not passed Check.
package sema

import (
	"fmt"
	"strconv"
	"strings"

	"saql/internal/agg"
	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/lexer"
	"saql/internal/pcode"
)

// Error is a semantic error with source position.
type Error struct {
	Pos lexer.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("semantic error at %s: %s", e.Pos, e.Msg) }

func errf(pos lexer.Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Info is the result of semantic analysis, consumed by the engine compiler
// and the concurrent query scheduler.
type Info struct {
	// EntityVars maps each entity variable to its type.
	EntityVars map[string]event.EntityType
	// Aliases maps each event alias to its pattern index.
	Aliases map[string]int
	// StateFields lists the state block field names in declaration order.
	StateFields []string
	// InvariantVars lists invariant variable names.
	InvariantVars []string
	// MaxStateIndex is the largest ss[k] index used anywhere in the query.
	MaxStateIndex int
	// ClusterMethod and ClusterParams are the parsed method spec, e.g.
	// "dbscan", [100000, 5].
	ClusterMethod string
	ClusterParams []float64
}

// Check validates q and returns analysis info.
func Check(q *ast.Query) (*Info, error) {
	info := &Info{
		EntityVars: map[string]event.EntityType{},
		Aliases:    map[string]int{},
	}

	if err := checkGlobals(q); err != nil {
		return nil, err
	}
	if err := collectPatterns(q, info); err != nil {
		return nil, err
	}
	if err := checkTemporal(q, info); err != nil {
		return nil, err
	}
	if err := checkStructure(q); err != nil {
		return nil, err
	}
	if q.State != nil {
		if err := checkState(q, info); err != nil {
			return nil, err
		}
	}
	if q.Invariant != nil {
		if err := checkInvariant(q, info); err != nil {
			return nil, err
		}
	}
	if q.Cluster != nil {
		if err := checkCluster(q, info); err != nil {
			return nil, err
		}
	}
	for _, a := range q.Alerts {
		if err := checkExpr(a, q, info, false); err != nil {
			return nil, err
		}
	}
	if q.Return != nil {
		for _, item := range q.Return.Items {
			if err := checkExpr(item.Expr, q, info, false); err != nil {
				return nil, err
			}
		}
	}
	return info, nil
}

var validGlobalAttrs = map[string]bool{
	"agentid": true, "agent_id": true, "host": true,
}

func checkGlobals(q *ast.Query) error {
	for _, g := range q.Globals {
		if !validGlobalAttrs[g.Attr] {
			return errf(g.Pos(), "unknown global constraint attribute %q (supported: agentid)", g.Attr)
		}
	}
	return nil
}

// MaxPatterns is the most event patterns one query may declare. A query's
// hits on one event travel through the engine as one 64-bit pattern set — the
// columnar evaluator's per-event mask, the router's ops, the multievent
// matcher's matched-set (which keeps the top bit to itself) — so the bound is
// a property of the language, checked here, rather than a second, unmasked
// code path behind it.
const MaxPatterns = 63

func collectPatterns(q *ast.Query, info *Info) error {
	if len(q.Patterns) > MaxPatterns {
		return errf(q.Patterns[MaxPatterns].Pos(), "query declares %d event patterns; at most %d are supported", len(q.Patterns), MaxPatterns)
	}
	for i, p := range q.Patterns {
		if p.Subject.Type != event.EntityProcess {
			return errf(p.Pos(), "event subject must be a process, got %s", p.Subject.Type)
		}
		for _, ep := range []*ast.EntityPattern{p.Subject, p.Object} {
			if ep.Var != "" {
				if prev, ok := info.EntityVars[ep.Var]; ok {
					if prev != ep.Type {
						return errf(ep.Pos(), "entity variable %q re-declared with type %s (was %s)", ep.Var, ep.Type, prev)
					}
				} else {
					info.EntityVars[ep.Var] = ep.Type
				}
			}
			for _, c := range ep.Constraints {
				if c.Attr == "" {
					continue // default-attribute wildcard
				}
				if !pcode.HasEntityAttr(ep.Type, c.Attr) {
					return errf(ep.Pos(), "%s entity has no attribute %q", ep.Type, c.Attr)
				}
			}
		}
		if len(p.Ops) == 0 {
			return errf(p.Pos(), "event pattern declares no operation")
		}
		if p.Alias != "" {
			if _, dup := info.Aliases[p.Alias]; dup {
				return errf(p.Pos(), "duplicate event alias %q", p.Alias)
			}
			if _, isVar := info.EntityVars[p.Alias]; isVar {
				return errf(p.Pos(), "event alias %q collides with an entity variable", p.Alias)
			}
			info.Aliases[p.Alias] = i
		}
	}
	return nil
}

func checkTemporal(q *ast.Query, info *Info) error {
	if q.Temporal == nil {
		return nil
	}
	seen := map[string]bool{}
	for _, name := range q.Temporal.Order {
		if _, ok := info.Aliases[name]; !ok {
			return errf(q.Temporal.Pos(), "temporal clause references undeclared event %q", name)
		}
		if seen[name] {
			return errf(q.Temporal.Pos(), "temporal clause repeats event %q", name)
		}
		seen[name] = true
	}
	return nil
}

func checkStructure(q *ast.Query) error {
	if q.State != nil && q.Window == nil {
		return errf(q.State.Pos(), "state block requires a #time window on an event pattern")
	}
	if q.Invariant != nil && q.State == nil {
		return errf(q.Invariant.Pos(), "invariant block requires a state block")
	}
	if q.Cluster != nil && q.State == nil {
		return errf(q.Cluster.Pos(), "cluster specification requires a state block")
	}
	if q.Temporal != nil && q.State != nil {
		return errf(q.Temporal.Pos(), "temporal sequencing and stateful computation cannot be combined in one query")
	}
	if len(q.Alerts) == 0 && q.Return == nil {
		return errf(q.Pos(), "query has neither an alert condition nor a return clause")
	}
	return nil
}

func checkState(q *ast.Query, info *Info) error {
	st := q.State
	if st.Name == "cluster" {
		return errf(st.Pos(), "state name %q collides with the cluster namespace", st.Name)
	}
	if _, isVar := info.EntityVars[st.Name]; isVar {
		return errf(st.Pos(), "state name %q collides with an entity variable", st.Name)
	}
	if _, isAlias := info.Aliases[st.Name]; isAlias {
		return errf(st.Pos(), "state name %q collides with an event alias", st.Name)
	}
	seen := map[string]bool{}
	for _, f := range st.Fields {
		if seen[f.Name] {
			return errf(st.Pos(), "duplicate state field %q", f.Name)
		}
		seen[f.Name] = true
		call, ok := f.Expr.(*ast.CallExpr)
		if !ok {
			return errf(f.Expr.Pos(), "state field %q must be an aggregation call, got %s", f.Name, f.Expr)
		}
		if !agg.IsAggregator(call.Func) {
			return errf(call.Pos(), "unknown aggregation function %q (available: %s)", call.Func, strings.Join(agg.Names(), ", "))
		}
		if len(call.Args) < 1 {
			return errf(call.Pos(), "aggregation %q requires an argument", call.Func)
		}
		// First arg is the per-event expression; the rest must be literals.
		if err := checkAggArg(call.Args[0], q, info); err != nil {
			return err
		}
		for _, extra := range call.Args[1:] {
			if _, ok := extra.(*ast.Literal); !ok {
				return errf(extra.Pos(), "aggregation parameter must be a literal, got %s", extra)
			}
		}
		info.StateFields = append(info.StateFields, f.Name)
	}
	for _, g := range st.GroupBy {
		if err := checkAggArg(g, q, info); err != nil {
			return err
		}
	}
	return nil
}

// checkAggArg validates an expression evaluated per matched event (the
// argument of an aggregation or a group-by key): it may reference entity
// variables, event aliases, and literals, but not state or cluster results.
func checkAggArg(e ast.Expr, q *ast.Query, info *Info) error {
	var fail error
	ast.Walk(e, func(n ast.Expr) {
		if fail != nil {
			return
		}
		switch x := n.(type) {
		case *ast.Ident:
			if x.Name == "cluster" || (q.State != nil && x.Name == q.State.Name) {
				fail = errf(x.Pos(), "per-event expression cannot reference %q", x.Name)
				return
			}
			if _, ok := info.EntityVars[x.Name]; ok {
				return
			}
			if _, ok := info.Aliases[x.Name]; ok {
				return
			}
			fail = errf(x.Pos(), "unknown identifier %q in per-event expression", x.Name)
		case *ast.FieldExpr:
			fail = checkFieldRef(x, q, info, true)
		case *ast.IndexExpr:
			fail = errf(x.Pos(), "state history indexing is not allowed in per-event expressions")
		}
	})
	return fail
}

func checkInvariant(q *ast.Query, info *Info) error {
	inv := q.Invariant
	declared := map[string]bool{}
	for _, s := range inv.Inits {
		if declared[s.Var] {
			return errf(inv.Pos(), "invariant variable %q initialised twice", s.Var)
		}
		if _, isVar := info.EntityVars[s.Var]; isVar {
			return errf(inv.Pos(), "invariant variable %q collides with an entity variable", s.Var)
		}
		if q.State != nil && s.Var == q.State.Name {
			return errf(inv.Pos(), "invariant variable %q collides with the state name", s.Var)
		}
		declared[s.Var] = true
		info.InvariantVars = append(info.InvariantVars, s.Var)
	}
	for _, s := range inv.Updates {
		if !declared[s.Var] {
			return errf(inv.Pos(), "invariant update assigns undeclared variable %q (declare with %q)", s.Var, s.Var+" := ...")
		}
		if err := checkExpr(s.Expr, q, info, true); err != nil {
			return err
		}
	}
	return nil
}

func checkCluster(q *ast.Query, info *Info) error {
	cl := q.Cluster
	switch cl.Distance {
	case "ed", "euclidean", "md", "manhattan", "cd", "chebyshev", "cos", "cosine":
	default:
		return errf(cl.Pos(), "unknown cluster distance %q (supported: ed, md, cd, cos)", cl.Distance)
	}
	method, params, err := ParseMethod(cl.Method)
	if err != nil {
		return errf(cl.Pos(), "%v", err)
	}
	info.ClusterMethod = method
	info.ClusterParams = params
	// Points expression must reference only state fields of the current
	// window (one scalar per group becomes one clustering point).
	var fail error
	ast.Walk(cl.Points, func(n ast.Expr) {
		if fail != nil {
			return
		}
		switch x := n.(type) {
		case *ast.FieldExpr:
			if id, ok := x.Base.(*ast.Ident); ok {
				if q.State != nil && id.Name == q.State.Name {
					if !hasStateField(info, x.Field) {
						fail = errf(x.Pos(), "cluster points reference unknown state field %q", x.Field)
					}
					return
				}
			}
			fail = errf(x.Pos(), "cluster points must reference state fields (e.g. %s.amt)", stateName(q))
		case *ast.Ident:
			if q.State == nil || x.Name != q.State.Name {
				fail = errf(x.Pos(), "cluster points must reference state fields, found %q", x.Name)
			}
		case *ast.IndexExpr:
			fail = errf(x.Pos(), "cluster points cannot use state history")
		}
	})
	return fail
}

func stateName(q *ast.Query) string {
	if q.State != nil {
		return q.State.Name
	}
	return "ss"
}

// ParseMethod parses a cluster method string such as "DBSCAN(100000, 5)" or
// "KMEANS(3)" into a lower-case method name and numeric parameters.
func ParseMethod(s string) (string, []float64, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 {
		name := strings.ToLower(s)
		if name == "" {
			return "", nil, fmt.Errorf("empty cluster method")
		}
		return name, nil, validateMethod(name, nil)
	}
	if !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("malformed cluster method %q", s)
	}
	name := strings.ToLower(strings.TrimSpace(s[:open]))
	argStr := s[open+1 : len(s)-1]
	var params []float64
	if strings.TrimSpace(argStr) != "" {
		for _, part := range strings.Split(argStr, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return "", nil, fmt.Errorf("bad cluster method parameter %q in %q", part, s)
			}
			params = append(params, f)
		}
	}
	return name, params, validateMethod(name, params)
}

func validateMethod(name string, params []float64) error {
	switch name {
	case "dbscan":
		if len(params) != 2 {
			return fmt.Errorf("DBSCAN requires (eps, minPts), got %d parameters", len(params))
		}
		if params[0] <= 0 {
			return fmt.Errorf("DBSCAN eps must be positive")
		}
		if params[1] < 1 || params[1] != float64(int(params[1])) {
			return fmt.Errorf("DBSCAN minPts must be a positive integer")
		}
	case "kmeans":
		if len(params) != 1 || params[0] < 1 || params[0] != float64(int(params[0])) {
			return fmt.Errorf("KMEANS requires a positive integer k")
		}
	default:
		return fmt.Errorf("unknown cluster method %q (supported: DBSCAN, KMEANS)", name)
	}
	return nil
}

func hasStateField(info *Info, name string) bool {
	for _, f := range info.StateFields {
		if f == name {
			return true
		}
	}
	return false
}

func hasInvariantVar(info *Info, name string) bool {
	for _, v := range info.InvariantVars {
		if v == name {
			return true
		}
	}
	return false
}

// checkExpr validates an alert/return/invariant-update expression.
// inInvariant permits referencing invariant variables before detection.
func checkExpr(e ast.Expr, q *ast.Query, info *Info, inInvariant bool) error {
	var fail error
	ast.Walk(e, func(n ast.Expr) {
		if fail != nil {
			return
		}
		switch x := n.(type) {
		case *ast.Ident:
			switch {
			case x.Name == "cluster":
				if q.Cluster == nil {
					fail = errf(x.Pos(), "query has no cluster specification; cannot reference %q", x.Name)
				}
			case q.State != nil && x.Name == q.State.Name:
				// bare state reference — checked at FieldExpr level
			case hasInvariantVar(info, x.Name):
				// invariant variable
			default:
				if _, ok := info.EntityVars[x.Name]; ok {
					return
				}
				if _, ok := info.Aliases[x.Name]; ok {
					return
				}
				fail = errf(x.Pos(), "unknown identifier %q", x.Name)
			}
		case *ast.FieldExpr:
			fail = checkFieldRef(x, q, info, false)
		case *ast.IndexExpr:
			if q.State == nil {
				fail = errf(x.Pos(), "state history indexing requires a state block")
				return
			}
			id, ok := x.Base.(*ast.Ident)
			if !ok || id.Name != q.State.Name {
				fail = errf(x.Pos(), "only the state variable %q can be indexed", q.State.Name)
				return
			}
			if x.Index >= q.State.History {
				fail = errf(x.Pos(), "state index %d out of range: state[%d] retains indices 0..%d",
					x.Index, q.State.History, q.State.History-1)
				return
			}
			if x.Index > info.MaxStateIndex {
				info.MaxStateIndex = x.Index
			}
		case *ast.CallExpr:
			if agg.IsAggregator(x.Func) {
				fail = errf(x.Pos(), "aggregation %q is only valid inside a state block", x.Func)
			}
		}
	})
	return fail
}

// checkFieldRef validates base.field accesses in any expression context.
func checkFieldRef(x *ast.FieldExpr, q *ast.Query, info *Info, perEvent bool) error {
	switch base := x.Base.(type) {
	case *ast.Ident:
		name := base.Name
		if name == "cluster" {
			if q.Cluster == nil {
				return errf(x.Pos(), "query has no cluster specification; cannot reference cluster.%s", x.Field)
			}
			switch x.Field {
			case "outlier", "cluster_id", "size":
				return nil
			default:
				return errf(x.Pos(), "unknown cluster field %q (available: outlier, cluster_id, size)", x.Field)
			}
		}
		if q.State != nil && name == q.State.Name {
			if perEvent {
				return errf(x.Pos(), "per-event expression cannot reference state %q", name)
			}
			if !hasStateField(info, x.Field) {
				return errf(x.Pos(), "state %q has no field %q", name, x.Field)
			}
			return nil
		}
		if et, ok := info.EntityVars[name]; ok {
			if !pcode.HasEntityAttr(et, x.Field) {
				return errf(x.Pos(), "%s entity %q has no attribute %q", et, name, x.Field)
			}
			return nil
		}
		if _, ok := info.Aliases[name]; ok {
			if !pcode.HasEventAttr(x.Field) {
				return errf(x.Pos(), "event %q has no attribute %q", name, x.Field)
			}
			return nil
		}
		if hasInvariantVar(info, name) {
			return errf(x.Pos(), "invariant variable %q has no fields", name)
		}
		return errf(x.Pos(), "unknown identifier %q", name)
	case *ast.IndexExpr:
		// ss[k].field: the IndexExpr branch of checkExpr validates the
		// index; validate the field here.
		if q.State == nil {
			return errf(x.Pos(), "state history indexing requires a state block")
		}
		if id, ok := base.Base.(*ast.Ident); !ok || id.Name != q.State.Name {
			return errf(x.Pos(), "only the state variable %q can be indexed", q.State.Name)
		}
		if !hasStateField(info, x.Field) {
			return errf(x.Pos(), "state %q has no field %q", q.State.Name, x.Field)
		}
		return nil
	default:
		return errf(x.Pos(), "unsupported field access base")
	}
}
