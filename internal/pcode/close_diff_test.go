package pcode_test

// The fourth differential surface: expressions compiled in a close scope and
// run against random close frames — the slot-indexed bindings of a window
// snapshot or a completed match, a state history ring, invariant variables, a
// clustering outcome — held to expr.Eval over the name-keyed environment the
// engine used to materialise from the same data.

import (
	"fmt"
	"math/rand"
	"time"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/expr"
	"saql/internal/pcode"
	"saql/internal/value"
	"saql/internal/window"
)

// closeCase is one random close scope with the names its expressions draw on.
type closeCase struct {
	scope    *pcode.Scope
	entities []string // entity variables by slot
	events   []string // event aliases by slot
	mgr      *window.Manager
}

var closeFields = []string{"amt", "n", "kids"}

// genCloseCase builds the scope of a stateful close (window state, maybe
// invariant variables — one of them named like an event alias, which sema
// allows — maybe clustering) or of a rule match (bindings only).
func genCloseCase(r *rand.Rand) closeCase {
	c := closeCase{
		scope:    &pcode.Scope{},
		entities: []string{"p1", "o1", "o2"}[:1+r.Intn(3)],
		events:   []string{"evt", "e2"}[:1+r.Intn(2)],
	}
	for slot, name := range c.entities {
		typ := event.EntityProcess
		if slot > 0 {
			typ = pick(r, entityTypes)
		}
		c.scope.Entities = append(c.scope.Entities, pcode.EntityVar{Name: name, Type: typ, Slot: slot})
	}
	for slot, name := range c.events {
		c.scope.Events = append(c.scope.Events, pcode.EventVar{Name: name, Slot: slot})
	}
	if r.Intn(4) == 0 {
		return c // a rule match: no state, no variables, no clustering
	}
	c.scope.State, c.scope.Fields = "ss", closeFields
	c.scope.Vars = []string{"a", "evt", "cluster"}[:r.Intn(4)]
	c.scope.Cluster = r.Intn(2) == 0
	specs := make([]window.FieldSpec, len(closeFields))
	for i, f := range closeFields {
		specs[i] = window.FieldSpec{Name: f, AggName: "sum"}
	}
	mgr, err := window.NewManager(window.Spec{Length: time.Minute}, specs)
	if err != nil {
		panic(err)
	}
	c.mgr = mgr
	return c
}

// genCloseLeaf draws on every name the close scope resolves, in every
// position, plus names and fields it does not.
func genCloseLeaf(r *rand.Rand, c closeCase) ast.Expr {
	ident := func(names ...string) *ast.Ident { return &ast.Ident{Name: pick(r, names)} }
	switch r.Intn(12) {
	case 0:
		return ident(c.entities...)
	case 1:
		return ident(append([]string{"unbound", "ss", "cluster", "a", ""}, c.events...)...)
	case 2, 3:
		v := pick(r, c.scope.Entities)
		return &ast.FieldExpr{Base: &ast.Ident{Name: v.Name}, Field: pick(r, attrsFor(v.Type))}
	case 4:
		return &ast.FieldExpr{Base: ident(c.events...), Field: pick(r, evAttrs)}
	case 5:
		return &ast.FieldExpr{Base: ident("cluster"), Field: pick(r, []string{"outlier", "cluster_id", "size", "bogus"})}
	case 6:
		return &ast.FieldExpr{Base: ident("ss", "ss", "a", "unbound", ""), Field: pick(r, append([]string{"bogus"}, closeFields...))}
	case 7, 8:
		return &ast.FieldExpr{
			Base:  &ast.IndexExpr{Base: ident("ss", "ss", "ss", "p1", ""), Index: r.Intn(6)},
			Field: pick(r, append([]string{"bogus"}, closeFields...)),
		}
	case 9:
		return pick(r, []ast.Expr{
			&ast.IndexExpr{Base: &ast.Ident{Name: "ss"}, Index: 1},
			&ast.FieldExpr{Base: &ast.IndexExpr{Base: genLiteral(r), Index: 0}, Field: "amt"},
			&ast.FieldExpr{Base: genLiteral(r), Field: "amt"},
		})
	default:
		return genLiteral(r)
	}
}

// genSnapshot is one history entry: a real snapshot, the manager's shared
// empty one, or one decoded from a blob that carried no fields.
func genSnapshot(r *rand.Rand, c closeCase) *window.Snapshot {
	switch r.Intn(4) {
	case 0:
		return c.mgr.EmptySnapshot(window.ID(r.Intn(100)))
	case 1:
		return &window.Snapshot{}
	}
	fields := make([]value.Value, len(closeFields))
	for i := range fields {
		fields[i] = genLiteral(r).Val
	}
	return &window.Snapshot{Fields: fields}
}

// genCloseFrame fills a frame for the case: binding slots nil, bound or cut
// short of the slot table; a history shorter or longer than the indices the
// expressions use; clustered and not-clustered outcomes.
func genCloseFrame(r *rand.Rand, c closeCase) *pcode.Frame {
	f := &pcode.Frame{}
	for _, v := range c.scope.Entities[:r.Intn(len(c.entities)+1)] {
		var e *event.Entity
		if r.Intn(3) > 0 {
			ent := genEntity(r, v.Type)
			e = &ent
		}
		f.Entities = append(f.Entities, e)
	}
	for range c.events[:r.Intn(len(c.events)+1)] {
		var ev *event.Event
		if r.Intn(3) > 0 {
			ev = genEvent(r, pick(r, entityTypes))
		}
		f.Events = append(f.Events, ev)
	}
	if c.mgr == nil {
		return f
	}
	f.History = c.mgr.NewHistory(1 + r.Intn(4))
	for n := r.Intn(7); n > 0; n-- {
		f.History.Push(genSnapshot(r, c))
	}
	for range c.scope.Vars {
		f.Vars = append(f.Vars, genLiteral(r).Val)
	}
	f.Cluster = pcode.Cluster{ID: -1}
	if r.Intn(2) == 0 {
		f.Cluster = pcode.Cluster{Outlier: r.Intn(2) == 0, ID: r.Intn(4), Size: 1 + r.Intn(9)}
	}
	return f
}

// stateByName and clusterByName are the by-name views the tree-walker reads
// state and clustering through.
type stateByName struct {
	h      *window.History
	fields []string
}

func (s stateByName) StateField(k int, field string) (value.Value, bool) {
	for i, f := range s.fields {
		if f == field {
			return s.h.Field(k, i), true
		}
	}
	return value.Null, true
}

type clusterByName pcode.Cluster

func (c clusterByName) ClusterField(field string) (value.Value, bool) {
	switch field {
	case "outlier":
		return value.Bool(c.Outlier), true
	case "cluster_id":
		return value.Int(int64(c.ID)), true
	case "size":
		return value.Int(int64(c.Size)), true
	}
	return value.Null, false
}

// closeEnv is the environment the engine materialised for the tree-walker
// from the same frame: bound slots keyed by name, unbound ones absent.
func closeEnv(c closeCase, f *pcode.Frame) *expr.Env {
	env := &expr.Env{
		Entities:  map[string]*event.Entity{},
		Events:    map[string]*event.Event{},
		StateName: c.scope.State,
	}
	for slot, e := range f.Entities {
		if e != nil {
			env.Entities[c.entities[slot]] = e
		}
	}
	for slot, ev := range f.Events {
		if ev != nil {
			env.Events[c.events[slot]] = ev
		}
	}
	if c.mgr == nil {
		return env
	}
	env.State = stateByName{f.History, c.scope.Fields}
	env.Vars = map[string]value.Value{}
	for i, name := range c.scope.Vars {
		env.Vars[name] = f.Vars[i]
	}
	if c.scope.Cluster {
		env.Cluster = clusterByName(f.Cluster)
	}
	return env
}

// diffClose checks one random close-scope program against the tree-walker on
// several frames, comparing value and error string.
func diffClose(r *rand.Rand) error {
	c := genCloseCase(r)
	e := genExpr(r, func(r *rand.Rand) ast.Expr { return genCloseLeaf(r, c) }, 3)
	prog := pcode.CompileExpr(e, c.scope)
	if prog == nil {
		return fmt.Errorf("close expr %s did not compile", e)
	}
	stack := make([]value.Value, prog.Depth())
	for i := 0; i < 4; i++ {
		f := genCloseFrame(r, c)
		gotErr := prog.Run(f, stack)
		wantV, wantErr := expr.Eval(e, closeEnv(c, f))
		if err := sameOutcome(wantV, wantErr, stack[0], gotErr); err != nil {
			return fmt.Errorf("close expr %s (vars %v, cluster %v, %d/%d entity and %d/%d event slots, history %d): %v",
				e, c.scope.Vars, c.scope.Cluster, len(f.Entities), len(c.entities), len(f.Events), len(c.events), historyLen(f), err)
		}
	}
	return nil
}

func historyLen(f *pcode.Frame) int {
	if f.History == nil {
		return -1
	}
	return f.History.Len()
}
