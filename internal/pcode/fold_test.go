package pcode

// Constant folding by execution, checked at the instruction level: the table
// pins the shapes the recursive folder (fold_ref_test.go) was written for, and
// a random sweep over constant and near-constant trees holds every subtree
// that folder called constant to the same single instruction.

import (
	"fmt"
	"math/rand"
	"testing"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/parser"
	"saql/internal/value"
)

var foldScope = Binding{SubjVar: "p", ObjVar: "q", Alias: "e", SubjType: event.EntityProcess, ObjType: event.EntityProcess}.Scope()

func lit(v value.Value) ast.Expr { return &ast.Literal{Val: v} }

func ops(p *Prog) string {
	out := ""
	for _, in := range p.ins {
		switch in.op {
		case xConst:
			out += fmt.Sprintf("const(%s %s) ", p.consts[in.idx].Kind(), p.consts[in.idx])
		case xRaise:
			out += fmt.Sprintf("raise(%v) ", in.err)
		default:
			out += fmt.Sprintf("op%d ", in.op)
		}
	}
	return out
}

func TestFoldByExecution(t *testing.T) {
	parse := func(src string) ast.Expr {
		q, err := parser.Parse("proc p start proc q as e alert " + src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return q.Alerts[0]
	}
	null := lit(value.Null)
	load := fmt.Sprintf("op%d ", xEntInt)
	for _, c := range []struct {
		name string
		e    ast.Expr
		want string
	}{
		{"arithmetic", parse(`1 + 2 * 3`), "const(int 7) "},
		{"deciding left skips an erroring right", parse(`false && (1/0 > 0)`), "const(bool false) "},
		{"deciding left skips a load", parse(`true || p.pid > 0`), "const(bool true) "},
		{"null decides && as false", &ast.BinaryExpr{Op: ast.OpAnd, Left: null, Right: parse(`p.pid`)}, "const(bool false) "},
		{"erroring left is the node", parse(`(1/0) + p.pid`), "raise(value: division by zero) "},
		{"erroring left of a logical is the node", parse(`(1/0 > 0) && p.pid > 0`), "raise(value: division by zero) "},
		{"erroring right after a passing left", parse(`true && (1/0 > 0)`), "raise(value: division by zero) "},
		{"not of a number", parse(`!3`), "raise(expr: ! requires a boolean, got int) "},
		{"cardinality of a string", parse(`|"x"|`), "raise(expr: |...| requires a set or number, got string) "},
		{"non-boolean left", parse(`3 && p.pid > 0`), "raise(expr: && requires boolean operands, got int) "},
		{"null arithmetic", &ast.BinaryExpr{Op: ast.OpAdd, Left: null, Right: parse(`1`)}, "const(null null) "},
		{"null comparison", &ast.BinaryExpr{Op: ast.OpLt, Left: null, Right: parse(`1`)}, "const(bool false) "},
		{"null negation", &ast.UnaryExpr{Op: '-', X: null}, "const(null null) "},
		{"null cardinality", &ast.CardExpr{X: null}, "const(int 0) "},
		{"passing left reduces to right and a coercion", parse(`true && p.pid`), load + fmt.Sprintf("op%d ", xBool)},
		{"load on the left keeps the jump", parse(`p.pid && (1/0 > 0)`),
			load + fmt.Sprintf("op%d ", xAndJump) + "raise(value: division by zero) " + fmt.Sprintf("op%d ", xBool)},
		// What the recursive folder left to run time folds too, now that
		// folding is execution.
		{"call", parse(`pow(2, 10)`), "const(float 1024) "},
		{"erroring call", parse(`sqrt(0 - 1)`), "raise(expr: sqrt of negative number -1) "},
		{"set operator", parse(`"x" in (empty_set union empty_set)`), "const(bool false) "},
	} {
		if got := ops(CompileExpr(c.e, foldScope)); got != c.want {
			t.Errorf("%s: %s compiles to %s, want %s", c.name, c.e, got, c.want)
		}
	}
}

// genConstTree builds a tree of literals and operators with an occasional
// load, so constant subtrees sit under, beside and above non-constant ones.
func genConstTree(r *rand.Rand, depth int) ast.Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(8) {
		case 0:
			return &ast.FieldExpr{Base: &ast.Ident{Name: "p"}, Field: "pid"}
		case 1:
			return lit(value.Null)
		case 2:
			return lit(value.Bool(r.Intn(2) == 0))
		case 3:
			return lit(value.String([]string{"x", "%", ""}[r.Intn(3)]))
		case 4:
			return lit(value.SetOf("x"))
		default:
			return lit(value.Int(int64(r.Intn(5) - 2)))
		}
	}
	switch r.Intn(6) {
	case 0:
		return &ast.UnaryExpr{Op: []byte{'!', '-', '~'}[r.Intn(3)], X: genConstTree(r, depth-1)}
	case 1:
		return &ast.CardExpr{X: genConstTree(r, depth-1)}
	default:
		binops := []ast.BinOp{
			ast.OpAnd, ast.OpOr, ast.OpAnd, ast.OpOr, ast.OpEq, ast.OpNe, ast.OpLt, ast.OpGe,
			ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpMod,
		}
		return &ast.BinaryExpr{Op: binops[r.Intn(len(binops))], Left: genConstTree(r, depth-1), Right: genConstTree(r, depth-1)}
	}
}

func TestFoldMatchesRecursiveFolder(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	folded := 0
	for i := 0; i < 20000; i++ {
		e := genConstTree(r, 4)
		v, isConst, err := constEval(e)
		if !isConst {
			continue
		}
		folded++
		want := fmt.Sprintf("const(%s %s) ", v.Kind(), v)
		if err != nil {
			want = fmt.Sprintf("raise(%v) ", err)
		}
		if got := ops(CompileExpr(e, foldScope)); got != want {
			t.Fatalf("%s compiles to %s, the recursive folder made it %s", e, got, want)
		}
	}
	if folded < 5000 {
		t.Fatalf("only %d of the trees were constant", folded)
	}
}
