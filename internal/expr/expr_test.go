package expr

import (
	"strings"
	"testing"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/parser"
	"saql/internal/value"
)

// exprOf parses src as a query alert expression for convenient test setup.
func exprOf(t *testing.T, src string) ast.Expr {
	t.Helper()
	q, err := parser.Parse("proc p start proc q as e alert " + src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q.Alerts[0]
}

type fakeState map[int]map[string]value.Value

func (f fakeState) StateField(idx int, field string) (value.Value, bool) {
	if w, ok := f[idx]; ok {
		if v, ok := w[field]; ok {
			return v, true
		}
	}
	return value.Null, true
}

type fakeCluster struct{ outlier bool }

func (f fakeCluster) ClusterField(field string) (value.Value, bool) {
	switch field {
	case "outlier":
		return value.Bool(f.outlier), true
	case "cluster_id":
		return value.Int(2), true
	}
	return value.Null, false
}

func env() *Env {
	p := event.Process("osql.exe", 42)
	f := event.File(`C:\db\backup1.dmp`)
	ev := &event.Event{AgentID: "db-1", Subject: p, Op: event.OpWrite, Object: f, Amount: 1234}
	return &Env{
		Entities:  map[string]*event.Entity{"p1": &p, "f1": &f},
		Events:    map[string]*event.Event{"evt": ev},
		StateName: "ss",
		State: fakeState{
			0: {"amt": value.Float(5000), "procs": value.SetOf("a", "b")},
			1: {"amt": value.Float(100)},
		},
		Vars:    map[string]value.Value{"a": value.SetOf("a")},
		Cluster: fakeCluster{outlier: true},
	}
}

func evalStr(t *testing.T, src string) value.Value {
	t.Helper()
	v, err := Eval(exprOf(t, src), env())
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestLiteralsAndArithmetic(t *testing.T) {
	cases := map[string]float64{
		"1 + 2 * 3":   7,
		"(1 + 2) * 3": 9,
		"10 / 4":      2.5,
		"7 % 3":       1,
		"-3 + 5":      2,
		"2 * 3 - 1":   5,
		"abs(0 - 5)":  5,
		"sqrt(16)":    4,
		"pow(2, 10)":  1024,
		"floor(2.7)":  2,
		"ceil(2.1)":   3,
	}
	for src, want := range cases {
		got, ok := evalStr(t, src).AsFloat()
		if !ok || got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEntityShortcutsAndAttrs(t *testing.T) {
	if got := evalStr(t, `p1`); got.Str() != "osql.exe" {
		t.Errorf("p1 shortcut = %v", got)
	}
	if got := evalStr(t, `p1.exe_name`); got.Str() != "osql.exe" {
		t.Errorf("p1.exe_name = %v", got)
	}
	if got := evalStr(t, `p1.pid`); got.IntVal() != 42 {
		t.Errorf("p1.pid = %v", got)
	}
	if got := evalStr(t, `f1`); !strings.Contains(got.Str(), "backup1.dmp") {
		t.Errorf("f1 shortcut = %v", got)
	}
	if got := evalStr(t, `evt.amount`); got.FloatVal() != 1234 {
		t.Errorf("evt.amount = %v", got)
	}
	if got := evalStr(t, `evt.agentid`); got.Str() != "db-1" {
		t.Errorf("evt.agentid = %v", got)
	}
}

func TestStateAccess(t *testing.T) {
	if got := evalStr(t, `ss.amt`); got.FloatVal() != 5000 {
		t.Errorf("ss.amt = %v", got)
	}
	if got := evalStr(t, `ss[0].amt`); got.FloatVal() != 5000 {
		t.Errorf("ss[0].amt = %v", got)
	}
	if got := evalStr(t, `ss[1].amt`); got.FloatVal() != 100 {
		t.Errorf("ss[1].amt = %v", got)
	}
	// Missing history index resolves to null; comparison false.
	if got := evalStr(t, `ss[2].amt > 0`); got.BoolVal() {
		t.Error("missing history comparison should be false")
	}
	// Null arithmetic propagates then compares false.
	if got := evalStr(t, `ss[2].amt + 5 > 0`); got.BoolVal() {
		t.Error("null arithmetic comparison should be false")
	}
}

// TestNumericScalarsPropagateNull: a numeric function of state that does not
// exist yet is null — so the condition around it is quiet, not an error —
// for every function of the library, pow included.
func TestNumericScalarsPropagateNull(t *testing.T) {
	for _, src := range []string{
		`abs(ss[2].amt)`, `sqrt(ss[2].amt)`, `log(ss[2].amt)`, `floor(ss[2].amt)`, `ceil(ss[2].amt)`,
		`pow(ss[2].amt, 2)`, `pow(2, ss[2].amt)`, `pow(ss[2].amt, ss[2].amt)`,
	} {
		if got := evalStr(t, src); !got.IsNull() {
			t.Errorf("%s = %v, want null", src, got)
		}
		if got := evalStr(t, src+` > 100`); got.BoolVal() {
			t.Errorf("%s > 100 should be false", src)
		}
	}
}

func TestClusterAccess(t *testing.T) {
	if got := evalStr(t, `cluster.outlier`); !got.BoolVal() {
		t.Error("cluster.outlier should be true")
	}
	if got := evalStr(t, `cluster.cluster_id`); got.IntVal() != 2 {
		t.Errorf("cluster.cluster_id = %v", got)
	}
}

func TestSetExpressions(t *testing.T) {
	if got := evalStr(t, `|ss.procs diff a|`); got.IntVal() != 1 {
		t.Errorf("|procs diff a| = %v", got)
	}
	if got := evalStr(t, `|ss.procs union a|`); got.IntVal() != 2 {
		t.Errorf("|procs union a| = %v", got)
	}
	if got := evalStr(t, `|ss.procs intersect a|`); got.IntVal() != 1 {
		t.Errorf("|procs intersect a| = %v", got)
	}
	if got := evalStr(t, `"b" in ss.procs`); !got.BoolVal() {
		t.Error("b in procs should be true")
	}
	if got := evalStr(t, `"z" in ss.procs`); got.BoolVal() {
		t.Error("z in procs should be false")
	}
	if got := evalStr(t, `|empty_set|`); got.IntVal() != 0 {
		t.Errorf("|empty_set| = %v", got)
	}
	if got := evalStr(t, `len(ss.procs)`); got.IntVal() != 2 {
		t.Errorf("len = %v", got)
	}
	if got := evalStr(t, `contains(ss.procs, "a")`); !got.BoolVal() {
		t.Error("contains should be true")
	}
}

func TestCardAbs(t *testing.T) {
	if got := evalStr(t, `|0 - 7|`); got.IntVal() != 7 {
		t.Errorf("|0-7| = %v", got)
	}
	if got := evalStr(t, `|ss[1].amt - ss.amt|`); got.FloatVal() != 4900 {
		t.Errorf("|100-5000| = %v", got)
	}
}

func TestWildcardEquality(t *testing.T) {
	if got := evalStr(t, `p1.exe_name == "%osql%"`); !got.BoolVal() {
		t.Error("wildcard equality should match")
	}
	if got := evalStr(t, `p1.exe_name != "%osql%"`); got.BoolVal() {
		t.Error("wildcard inequality should be false")
	}
	if got := evalStr(t, `p1.exe_name == "OSQL.EXE"`); !got.BoolVal() {
		t.Error("string equality is case-insensitive")
	}
}

func TestLogicShortCircuit(t *testing.T) {
	// The right side would error (unknown function), but short-circuiting
	// must prevent evaluation.
	v, err := Eval(exprOf(t, `false && nosuch(1)`), env())
	if err != nil || v.BoolVal() {
		t.Errorf("short-circuit && failed: %v %v", v, err)
	}
	v, err = Eval(exprOf(t, `true || nosuch(1)`), env())
	if err != nil || !v.BoolVal() {
		t.Errorf("short-circuit || failed: %v %v", v, err)
	}
	if got := evalStr(t, `!(1 > 2)`); !got.BoolVal() {
		t.Error("!(1>2) should be true")
	}
}

func TestEvalErrors(t *testing.T) {
	bad := []string{
		`1 / 0`,
		`nosuch(1)`,
		`avg(1)`, // aggregation outside state block
		`p1.no_attr`,
		`evt.no_attr`,
		`1 && true`,
		`!5`,
		`sqrt(0 - 1)`,
		`log(0)`,
		`"x" + 1`,
		`|true|`,
		`pow("x", 2)`,
		`pow(ss[2].amt, "x")`, // a null operand does not excuse a non-number
	}
	for _, src := range bad {
		if _, err := Eval(exprOf(t, src), env()); err == nil {
			t.Errorf("eval %q should fail", src)
		}
	}
}

func TestEvalBool(t *testing.T) {
	ok, err := EvalBool(exprOf(t, `1 < 2`), env())
	if err != nil || !ok {
		t.Errorf("EvalBool(1<2) = %v, %v", ok, err)
	}
	if _, err := EvalBool(exprOf(t, `1 + 1`), env()); err == nil {
		t.Error("numeric condition should fail EvalBool")
	}
}

func TestUnboundIdentifiersAreNull(t *testing.T) {
	// Unbound entity variables tolerate as null (group-dependent binding).
	if got := evalStr(t, `zz.exe_name == "x"`); got.BoolVal() {
		t.Error("unbound base should compare false")
	}
	v, err := Eval(&ast.Ident{Name: "unbound"}, env())
	if err != nil || !v.IsNull() {
		t.Errorf("unbound ident = %v, %v", v, err)
	}
}

func TestEventAliasNotAValue(t *testing.T) {
	if _, err := Eval(exprOf(t, `evt == 1`), env()); err == nil {
		t.Error("event alias used as value should error")
	}
}
