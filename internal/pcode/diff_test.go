package pcode_test

// Differential correctness harness for the compiled evaluators: every
// randomized case is executed by both the pcode program and its oracle — the
// interpreting predicate closures (pred_ref_test.go) or expr.Eval over a
// per-hit environment — and the results, value AND error string, must agree
// exactly. Compilation is total, so a nil program is itself a failure. Four
// surfaces are covered: entity-pattern predicates, global-constraint
// predicates, per-event expression programs (aggregation arguments and
// group-by items), and close-time expression programs (alert conditions,
// return items, invariant updates, clustering points) over random close
// frames (close_diff_test.go). The same generators drive a testing/quick
// property and a fuzz target whose seed corpus runs in CI as part of
// `go test`.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/expr"
	"saql/internal/parser"
	"saql/internal/pcode"
	"saql/internal/symtab"
	"saql/internal/value"
)

// stringPool mixes the shapes that historically break case-folded matching:
// wildcards in both operand positions, case variants, empty strings, and
// non-ASCII values whose Unicode ToLower diverges from ASCII folding (Kelvin
// sign, dotted capital I).
var stringPool = []string{
	"", "cmd.exe", "CMD.EXE", "Cmd.Exe", "osql.exe", "%osql.exe", "sbblv.exe",
	"%", "%%", "a%b", "x", "X", "/usr/bin/curl", "C:\\Windows\\cmd.exe",
	"10.0.0.5", "192.168.1.77", "tcp", "UDP", "alice", "Bob",
	"\u212Aelvin", "\u0130stanbul", "na\u00EFve", "caf\u00E9",
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

func genLiteral(r *rand.Rand) *ast.Literal {
	var v value.Value
	switch r.Intn(7) {
	case 0, 1:
		v = value.String(pick(r, stringPool))
	case 2:
		v = value.Int(int64(r.Intn(21) - 10))
	case 3:
		v = value.Float([]float64{-1.5, 0, 0.5, 3.25, 4096}[r.Intn(5)])
	case 4:
		v = value.Bool(r.Intn(2) == 0)
	case 5:
		v = []value.Value{value.EmptySet(), value.SetOf("cmd.exe", "x"), value.SetOf("3")}[r.Intn(3)]
	default:
		v = value.Null
	}
	return &ast.Literal{Val: v}
}

var cmpOps = []ast.CompareOp{ast.CmpEq, ast.CmpNe, ast.CmpLt, ast.CmpLe, ast.CmpGt, ast.CmpGe}

// attrPools include every real attribute (and aliases) per entity type plus
// attributes that are invalid for the type, and "" for the default.
var (
	procAttrs = []string{"", "exe_name", "exe", "name", "pid", "user", "cmdline", "path", "dstip", "bogus"}
	fileAttrs = []string{"", "name", "path", "filename", "basename", "pid", "dstip", "bogus"}
	ipAttrs   = []string{"", "srcip", "dstip", "dip", "sport", "dport", "protocol", "exe_name", "bogus"}
	evAttrs   = []string{"amount", "bytes", "agentid", "host", "time", "id", "optype", "op", "pid", "bogus"}
)

func attrsFor(t event.EntityType) []string {
	switch t {
	case event.EntityProcess:
		return procAttrs
	case event.EntityFile:
		return fileAttrs
	default:
		return ipAttrs
	}
}

var entityTypes = []event.EntityType{event.EntityProcess, event.EntityFile, event.EntityNetConn}

func genEntityPattern(r *rand.Rand, typ event.EntityType, v string) *ast.EntityPattern {
	p := &ast.EntityPattern{Type: typ, Var: v}
	for i := r.Intn(4); i > 0; i-- {
		p.Constraints = append(p.Constraints, &ast.AttrConstraint{
			Attr: pick(r, attrsFor(typ)),
			Op:   pick(r, cmpOps),
			Val:  genLiteral(r),
		})
	}
	return p
}

// maybeSym stamps a symbol exactly the way the codec intern tables do:
// either zero (never interned) or the value's true dictionary symbol.
func maybeSym(r *rand.Rand, s string) uint32 {
	if r.Intn(2) == 0 {
		return 0
	}
	return symtab.Intern(s)
}

func genEntity(r *rand.Rand, typ event.EntityType) event.Entity {
	e := event.Entity{Type: typ}
	switch typ {
	case event.EntityProcess:
		e.ExeName = pick(r, stringPool)
		e.ExeSym = maybeSym(r, e.ExeName)
		e.PID = int32(r.Intn(8) + 1)
		e.User = pick(r, stringPool)
		e.UserSym = maybeSym(r, e.User)
		e.CmdLine = pick(r, stringPool)
	case event.EntityFile:
		e.Path = pick(r, stringPool)
	case event.EntityNetConn:
		e.SrcIP = pick(r, stringPool)
		e.SrcIPSym = maybeSym(r, e.SrcIP)
		e.DstIP = pick(r, stringPool)
		e.DstIPSym = maybeSym(r, e.DstIP)
		e.SrcPort = int32(r.Intn(1024))
		e.DstPort = int32(r.Intn(1024))
		e.Protocol = pick(r, []string{"tcp", "TCP", "udp"})
		e.ProtoSym = maybeSym(r, e.Protocol)
	}
	return e
}

var opsPool = []event.Op{event.OpRead, event.OpWrite, event.OpExecute, event.OpStart, event.OpConnect}

func genEvent(r *rand.Rand, objType event.EntityType) *event.Event {
	ev := &event.Event{
		ID:      uint64(r.Intn(1000)),
		Time:    time.Unix(1700000000, int64(r.Intn(1e9))),
		AgentID: pick(r, stringPool),
		Subject: genEntity(r, event.EntityProcess),
		Op:      pick(r, opsPool),
		Object:  genEntity(r, objType),
		Amount:  []float64{0, 1, 1024.5, 1 << 20}[r.Intn(4)],
	}
	ev.AgentSym = maybeSym(r, ev.AgentID)
	return ev
}

// diffEntity checks one random entity pattern against random entities.
func diffEntity(r *rand.Rand) error {
	typ := pick(r, entityTypes)
	p := genEntityPattern(r, typ, "x")
	prog := pcode.CompileEntity(p, nil)
	if prog == nil {
		return fmt.Errorf("entity pattern %s did not compile", p)
	}
	pred := refEntityPred(p)
	// Test against entities of the pattern's type and of others.
	for i := 0; i < 4; i++ {
		e := genEntity(r, pick(r, entityTypes))
		want, got := pred(&e), prog.Match(&e)
		if want != got {
			return fmt.Errorf("entity pattern %s on %s: interpreted=%v compiled=%v", p, e.String(), want, got)
		}
	}
	return nil
}

// diffGlobals checks random global constraints against random events.
func diffGlobals(r *rand.Rand) error {
	var cs []*ast.Constraint
	for i := r.Intn(3) + 1; i > 0; i-- {
		cs = append(cs, &ast.Constraint{
			Attr: pick(r, evAttrs),
			Op:   pick(r, cmpOps),
			Val:  genLiteral(r),
		})
	}
	prog := pcode.CompileGlobals(cs, nil)
	if prog == nil {
		return fmt.Errorf("globals %v did not compile", cs)
	}
	pred := refGlobalPred(cs)
	for i := 0; i < 4; i++ {
		ev := genEvent(r, pick(r, entityTypes))
		want, got := pred(ev), prog.Match(ev)
		if want != got {
			return fmt.Errorf("globals %v on %s: interpreted=%v compiled=%v", cs, ev, want, got)
		}
	}
	return nil
}

// callNames are the scalar builtins, aggregator names (rejected outside a
// state block) and an unknown function.
var callNames = []string{
	"abs", "sqrt", "log", "floor", "ceil", "pow", "len", "size", "contains",
	"sum", "count", "percentile", "nosuchfn",
}

// genLeaf builds an expression without operands: entity idents and fields
// (valid and invalid attributes), event-alias fields and the bare alias,
// unbound names, cluster fields, state references (which name no state
// variable per event), and literals.
func genLeaf(r *rand.Rand, b pcode.Binding) ast.Expr {
	switch r.Intn(13) {
	case 0:
		return &ast.Ident{Name: b.SubjVar}
	case 1:
		return &ast.Ident{Name: b.ObjVar}
	case 2:
		return &ast.Ident{Name: pick(r, []string{"unbound", "ss", ""})}
	case 3:
		return &ast.FieldExpr{Base: &ast.Ident{Name: b.SubjVar}, Field: pick(r, attrsFor(b.SubjType))}
	case 4:
		return &ast.FieldExpr{Base: &ast.Ident{Name: b.ObjVar}, Field: pick(r, attrsFor(b.ObjType))}
	case 5:
		return &ast.FieldExpr{Base: &ast.Ident{Name: b.Alias}, Field: pick(r, evAttrs)}
	case 6:
		return &ast.FieldExpr{Base: &ast.Ident{Name: pick(r, []string{"cluster", "ss", "unbound", ""})}, Field: "outlier"}
	case 7:
		return &ast.Ident{Name: b.Alias}
	case 8:
		return &ast.FieldExpr{Base: &ast.IndexExpr{Base: &ast.Ident{Name: pick(r, []string{"ss", "", b.SubjVar})}, Index: 2}, Field: "f"}
	case 9:
		return pick(r, []ast.Expr{
			&ast.IndexExpr{Base: &ast.Ident{Name: "ss"}, Index: 1},
			&ast.FieldExpr{Base: &ast.IndexExpr{Base: genLiteral(r), Index: 0}, Field: "f"},
			&ast.FieldExpr{Base: genLiteral(r), Field: "f"},
		})
	default:
		return genLiteral(r)
	}
}

// genExpr builds a random expression over leaf's variables: every leaf
// shape, every operator the grammar has (and ones it does not), scalar
// calls at right and wrong arities, and right-leaning chains deeper than the
// machine's in-frame operand stack.
func genExpr(r *rand.Rand, leaf func(*rand.Rand) ast.Expr, depth int) ast.Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		return leaf(r)
	}
	switch r.Intn(14) {
	case 0:
		return &ast.UnaryExpr{Op: pick(r, []byte{'!', '-', '~'}), X: genExpr(r, leaf, depth-1)}
	case 1:
		return &ast.UnaryExpr{Op: '-', X: genExpr(r, leaf, depth-1)}
	case 2:
		return &ast.CardExpr{X: genExpr(r, leaf, depth-1)}
	case 3, 4:
		call := &ast.CallExpr{Func: pick(r, callNames)}
		for n := r.Intn(4); n > 0; n-- {
			call.Args = append(call.Args, genExpr(r, leaf, depth-1))
		}
		return call
	case 5:
		// Right-leaning chain: operand-stack depth grows with its length.
		op := pick(r, []ast.BinOp{ast.OpAdd, ast.OpAnd, ast.OpOr, ast.OpUnion, ast.OpEq})
		e := leaf(r)
		for n := 17 + r.Intn(24); n > 0; n-- {
			e = &ast.BinaryExpr{Op: op, Left: leaf(r), Right: e}
		}
		return e
	default:
		ops := []ast.BinOp{
			ast.OpAnd, ast.OpOr, ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe,
			ast.OpGt, ast.OpGe, ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpMod,
			ast.OpUnion, ast.OpDiff, ast.OpIntersect, ast.OpIn, ast.OpInvalid,
		}
		return &ast.BinaryExpr{Op: pick(r, ops), Left: genExpr(r, leaf, depth-1), Right: genExpr(r, leaf, depth-1)}
	}
}

// bindEnvLike builds the per-hit environment the tree-walker evaluated
// per-event expressions in: subject entity written first, object second
// (shadowing a shared name), alias bound last; no state, no variables.
func bindEnvLike(b pcode.Binding, ev *event.Event) *expr.Env {
	env := &expr.Env{Entities: map[string]*event.Entity{}, Events: map[string]*event.Event{}}
	if b.SubjVar != "" {
		s := ev.Subject
		env.Entities[b.SubjVar] = &s
	}
	if b.ObjVar != "" {
		o := ev.Object
		env.Entities[b.ObjVar] = &o
	}
	if b.Alias != "" {
		env.Events[b.Alias] = ev
	}
	return env
}

func sameValue(a, b value.Value) bool {
	return a.Kind() == b.Kind() && a.String() == b.String()
}

// diffExpr checks one random expression program against the tree-walker on
// several events matching the binding's types, comparing value and error
// string.
func diffExpr(r *rand.Rand) error {
	b := pcode.Binding{
		SubjVar:  "p1",
		ObjVar:   pick(r, []string{"o1", "p1"}), // sometimes shared name
		Alias:    "evt",
		SubjType: event.EntityProcess,
		ObjType:  pick(r, entityTypes),
	}
	e := genExpr(r, func(r *rand.Rand) ast.Expr { return genLeaf(r, b) }, 3)
	prog := pcode.CompileExpr(e, b.Scope())
	if prog == nil {
		return fmt.Errorf("expr %s did not compile", e)
	}
	for i := 0; i < 4; i++ {
		ev := genEvent(r, b.ObjType)
		stack := make([]value.Value, prog.Depth())
		gotErr := prog.Run(&pcode.Frame{Event: ev}, stack)
		gotV := stack[0]
		wantV, wantErr := expr.Eval(e, bindEnvLike(b, ev))
		if err := sameOutcome(wantV, wantErr, gotV, gotErr); err != nil {
			return fmt.Errorf("expr %s on %s: %v", e, ev, err)
		}
	}
	return nil
}

// sameOutcome holds a program's outcome to the tree-walker's: the same value,
// kind included, or the same error string.
func sameOutcome(wantV value.Value, wantErr error, gotV value.Value, gotErr error) error {
	if (wantErr == nil) != (gotErr == nil) {
		return fmt.Errorf("interpreted err=%v compiled err=%v", wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			return fmt.Errorf("error text diverged:\n  interpreted: %v\n  compiled:    %v", wantErr, gotErr)
		}
		return nil
	}
	if !sameValue(wantV, gotV) {
		return fmt.Errorf("interpreted=%s(%s) compiled=%s(%s)", wantV.Kind(), wantV, gotV.Kind(), gotV)
	}
	return nil
}

func diffOnce(r *rand.Rand) error {
	if err := diffEntity(r); err != nil {
		return err
	}
	if err := diffGlobals(r); err != nil {
		return err
	}
	if err := diffExpr(r); err != nil {
		return err
	}
	return diffClose(r)
}

// TestCompiledEvalDifferential hammers all four compiled surfaces with a
// fixed-seed randomized sweep.
func TestCompiledEvalDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 4000; i++ {
		if err := diffOnce(r); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// TestQuickCompiledEval states the differential property through
// testing/quick: for every generator seed, compiled and interpreted
// evaluation agree on value and error.
func TestQuickCompiledEval(t *testing.T) {
	prop := func(seed int64) bool {
		if err := diffOnce(rand.New(rand.NewSource(seed))); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCompiledEval drives the same differential from fuzz seeds; the seed
// corpus below runs under plain `go test` in CI, and `go test -fuzz` expands
// it indefinitely.
func FuzzCompiledEval(f *testing.F) {
	for seed := int64(0); seed < 256; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := diffOnce(rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBoolAndNullConstraintConstants pins the constants the parser produces
// that are neither string nor number: `true`/`false` in constraint position.
// A field never equals and is never ordered against one, so `=` and the
// ordered operators compile to a program no entity or event satisfies, and
// `!=` to one every entity (of the type) and every event satisfies.
func TestBoolAndNullConstraintConstants(t *testing.T) {
	for _, c := range []struct {
		src  string
		want bool
	}{
		{`proc p[pid = true] read file f return p`, false},
		{`proc p[pid >= false] read file f return p`, false},
		{`proc p[exe_name != false] read file f return p`, true},
		{`agentid = true
proc p read file f return p`, false},
		{`agentid != true
proc p read file f return p`, true},
	} {
		q, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		subj, globals := pcode.CompileEntity(q.Patterns[0].Subject, nil), pcode.CompileGlobals(q.Globals, nil)
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 32; i++ {
			ev := genEvent(r, event.EntityFile)
			got := subj.Match(&ev.Subject) && globals.Match(ev)
			ref := refEntityPred(q.Patterns[0].Subject)(&ev.Subject) && refGlobalPred(q.Globals)(ev)
			if got != c.want || ref != c.want {
				t.Fatalf("%s on %s: compiled=%v interpreted=%v, want %v", c.src, ev, got, ref, c.want)
			}
		}
	}
}
