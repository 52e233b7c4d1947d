package pcode

// The constant folder the compiler had before it folded constants by running
// the instructions it had just emitted: a second, recursive implementation of
// the operator semantics over the AST. It is kept as the test-only oracle of
// fold_test.go — every subtree it called constant must still compile to the
// single push, or the single raise, it produced.

import (
	"saql/internal/ast"
	"saql/internal/value"
)

// constEval evaluates statically constant subtrees with the interpreter's
// exact semantics. isConst=false means the subtree reads runtime state; an
// error with isConst=true means the interpreter would raise that error on
// every evaluation (the caller compiles it to that failure).
func constEval(e ast.Expr) (v value.Value, isConst bool, err error) {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Val, true, nil

	case *ast.UnaryExpr:
		xv, xc, xerr := constEval(x.X)
		if !xc {
			return value.Null, false, nil
		}
		if xerr != nil {
			return value.Null, true, xerr
		}
		switch x.Op {
		case '!':
			b, ok := xv.AsBool()
			if !ok {
				return value.Null, true, errNotBool(xv.Kind())
			}
			return value.Bool(!b), true, nil
		case '-':
			if xv.IsNull() {
				return value.Null, true, nil
			}
			nv, err := xv.Neg()
			return nv, true, err
		default:
			return value.Null, true, errUnaryOp(x.Op)
		}

	case *ast.CardExpr:
		xv, xc, xerr := constEval(x.X)
		if !xc {
			return value.Null, false, nil
		}
		if xerr != nil {
			return value.Null, true, xerr
		}
		nv, err := card(xv)
		return nv, true, err

	case *ast.BinaryExpr:
		return constBinary(x)
	}
	return value.Null, false, nil
}

func constBinary(x *ast.BinaryExpr) (v value.Value, isConst bool, err error) {
	if x.Op == ast.OpAnd || x.Op == ast.OpOr {
		lv, lc, lerr := constEval(x.Left)
		if !lc {
			return value.Null, false, nil
		}
		if lerr != nil {
			return value.Null, true, lerr
		}
		lb, ok := lv.AsBool()
		if !ok {
			return value.Null, true, errBoolOperand(x.Op.String(), lv.Kind())
		}
		// Short-circuit decides without the right side — exactly like the
		// interpreter, which never evaluates it (so a non-constant or even
		// erroneous right side does not matter here).
		if x.Op == ast.OpAnd && !lb {
			return value.Bool(false), true, nil
		}
		if x.Op == ast.OpOr && lb {
			return value.Bool(true), true, nil
		}
		rv, rc, rerr := constEval(x.Right)
		if !rc {
			return value.Null, false, nil
		}
		if rerr != nil {
			return value.Null, true, rerr
		}
		rb, ok := rv.AsBool()
		if !ok {
			return value.Null, true, errBoolOperand(x.Op.String(), rv.Kind())
		}
		return value.Bool(rb), true, nil
	}

	lv, lc, lerr := constEval(x.Left)
	if !lc {
		return value.Null, false, nil
	}
	if lerr != nil {
		return value.Null, true, lerr
	}
	rv, rc, rerr := constEval(x.Right)
	if !rc {
		return value.Null, false, nil
	}
	if rerr != nil {
		return value.Null, true, rerr
	}

	switch x.Op {
	case ast.OpEq, ast.OpNe:
		eq := value.EqualFold(lv, rv)
		if x.Op == ast.OpNe {
			eq = !eq
		}
		return value.Bool(eq), true, nil

	case ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		if lv.IsNull() || rv.IsNull() {
			return value.Bool(false), true, nil
		}
		c, err := lv.Compare(rv)
		if err != nil {
			return value.Null, true, err
		}
		var b bool
		switch x.Op {
		case ast.OpLt:
			b = c < 0
		case ast.OpLe:
			b = c <= 0
		case ast.OpGt:
			b = c > 0
		default:
			b = c >= 0
		}
		return value.Bool(b), true, nil

	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpMod:
		if lv.IsNull() || rv.IsNull() {
			return value.Null, true, nil
		}
		nv, err := lv.Arith(binInstr[x.Op].ab, rv)
		return nv, true, err
	}
	// Set operators, 'in' and unknown operators are left to run time.
	return value.Null, false, nil
}
