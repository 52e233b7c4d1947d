package pcode

import (
	"fmt"
	"math"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/expr"
	"saql/internal/value"
)

// Binding names the variables one pattern makes visible to its per-event
// expressions: the subject/object entity variables with their static types,
// and the event alias. The object binding shadows the subject when both use
// one variable name, and entity variables shadow the event alias. An event
// reaches a pattern's programs only after matching the pattern's typed entity
// predicates, so the static types are the event's.
type Binding struct {
	SubjVar  string
	ObjVar   string
	Alias    string
	SubjType event.EntityType
	ObjType  event.EntityType
}

// xOp is a stack-machine opcode.
type xOp uint8

const (
	xConst       xOp = iota // push in.val
	xSubjDefault            // push String(subject.DefaultAttr())
	xObjDefault             // push String(object.DefaultAttr())
	xSubjStr                // push String(subject.<fld>)
	xObjStr                 // push String(object.<fld>)
	xSubjInt                // push Int(subject.<fld>)
	xObjInt                 // push Int(object.<fld>)
	xEvtStr                 // push String(event.<fld>)
	xEvtInt                 // push Int(event.<fld>)
	xEvtFloat               // push Float(event.amount)
	xNot                    // pop b; push !b (error on non-boolean)
	xNeg                    // pop v; push -v (null stays null)
	xCard                   // pop v; push |v|
	xEq                     // pop r, l; push l == r (wildcard-aware)
	xNe                     // pop r, l; push l != r
	xLt                     // pop r, l; ordered comparisons (null -> false)
	xLe                     //
	xGt                     //
	xGe                     //
	xArith                  // pop r, l; push l <in.ab> r (null propagates)
	xAndJump                // pop b; false: push false, jump in.idx
	xOrJump                 // pop b; true: push true, jump in.idx
	xBool                   // pop v; push Bool(v) (error on non-boolean)
	xCall                   // pop in.idx args; push in.s(args...)
	xSetOp                  // pop r, l; push l <union|diff|intersect|in> r, in.ab the ast.BinOp
	xRaise                  // fail with in.err: a statically erroneous subexpression was reached
)

// xInstr is one stack-machine instruction.
type xInstr struct {
	op  xOp
	fld fld         // attribute selector for load ops
	ab  byte        // arithmetic operator for xArith ('+','-','*','/','%'); ast.BinOp for xSetOp
	idx int32       // jump target for xAndJump/xOrJump; operand count for xCall/xSetOp
	val value.Value // constant for xConst
	s   string      // operator text for xAndJump/xOrJump/xBool errors; function name for xCall
	err error       // what xRaise returns
}

// Prog is a compiled expression: a flat instruction sequence over an operand
// stack whose depth is known at compile time, evaluating one pattern's
// aggregation argument or group-by item against a matched event without
// building an environment. Values are a tagged struct, so nothing boxes or
// allocates.
type Prog struct {
	ins   []xInstr
	depth int // operand-stack high-water mark
}

// CompileExpr compiles e against one pattern's bindings. Every expression
// compiles: a shape that can only fail (a bare event alias, an attribute the
// bound type lacks, state indexing outside a window close, an erroring
// constant subtree) becomes an xRaise at the point in evaluation order where
// the failure would surface, so short-circuits that skip it still do.
func CompileExpr(e ast.Expr, b Binding) *Prog {
	c := &compiler{b: b}
	c.expr(e)
	return &Prog{ins: c.ins, depth: c.maxDepth}
}

// Depth is how many operand-stack slots Run needs.
func (p *Prog) Depth() int { return p.depth }

// Run evaluates the program against one matched event on the caller's
// operand stack — at least Depth slots, the caller's so that a query runs all
// its programs on one — and leaves the value in stack[0]. After an error the
// stack holds nothing meaningful.
//
//saql:hotpath
func (p *Prog) Run(ev *event.Event, stack []value.Value) error {
	sp := 0
	ins := p.ins
	for i := 0; i < len(ins); i++ {
		in := &ins[i]
		switch in.op {
		case xConst:
			stack[sp] = in.val
			sp++
		case xSubjDefault:
			stack[sp] = value.String(ev.Subject.DefaultAttr())
			sp++
		case xObjDefault:
			stack[sp] = value.String(ev.Object.DefaultAttr())
			sp++
		case xSubjStr:
			s, _ := strField(&ev.Subject, in.fld)
			stack[sp] = value.String(s)
			sp++
		case xObjStr:
			s, _ := strField(&ev.Object, in.fld)
			stack[sp] = value.String(s)
			sp++
		case xSubjInt:
			stack[sp] = value.Int(intField(&ev.Subject, in.fld))
			sp++
		case xObjInt:
			stack[sp] = value.Int(intField(&ev.Object, in.fld))
			sp++
		case xEvtStr:
			s, _ := evtStrField(ev, in.fld)
			stack[sp] = value.String(s)
			sp++
		case xEvtInt:
			stack[sp] = value.Int(evtIntField(ev, in.fld))
			sp++
		case xEvtFloat:
			stack[sp] = value.Float(ev.Amount)
			sp++
		case xNot:
			b, ok := stack[sp-1].AsBool()
			if !ok {
				return errNotBool(stack[sp-1].Kind())
			}
			stack[sp-1] = value.Bool(!b)
		case xNeg:
			v := stack[sp-1]
			if v.IsNull() {
				stack[sp-1] = value.Null
				break
			}
			nv, err := v.Neg()
			if err != nil {
				return err
			}
			stack[sp-1] = nv
		case xCard:
			nv, err := card(stack[sp-1])
			if err != nil {
				return err
			}
			stack[sp-1] = nv
		case xEq:
			stack[sp-2] = value.Bool(value.EqualFold(stack[sp-2], stack[sp-1]))
			sp--
		case xNe:
			stack[sp-2] = value.Bool(!value.EqualFold(stack[sp-2], stack[sp-1]))
			sp--
		case xLt, xLe, xGt, xGe:
			l, r := stack[sp-2], stack[sp-1]
			sp--
			if l.IsNull() || r.IsNull() {
				stack[sp-1] = value.Bool(false)
				break
			}
			c, err := l.Compare(r)
			if err != nil {
				return err
			}
			var b bool
			switch in.op {
			case xLt:
				b = c < 0
			case xLe:
				b = c <= 0
			case xGt:
				b = c > 0
			default:
				b = c >= 0
			}
			stack[sp-1] = value.Bool(b)
		case xArith:
			l, r := stack[sp-2], stack[sp-1]
			sp--
			if l.IsNull() || r.IsNull() {
				stack[sp-1] = value.Null
				break
			}
			nv, err := l.Arith(in.ab, r)
			if err != nil {
				return err
			}
			stack[sp-1] = nv
		case xAndJump:
			b, ok := stack[sp-1].AsBool()
			if !ok {
				return errBoolOperand(in.s, stack[sp-1].Kind())
			}
			sp--
			if !b {
				stack[sp] = value.Bool(false)
				sp++
				i = int(in.idx) - 1
			}
		case xOrJump:
			b, ok := stack[sp-1].AsBool()
			if !ok {
				return errBoolOperand(in.s, stack[sp-1].Kind())
			}
			sp--
			if b {
				stack[sp] = value.Bool(true)
				sp++
				i = int(in.idx) - 1
			}
		case xBool:
			b, ok := stack[sp-1].AsBool()
			if !ok {
				return errBoolOperand(in.s, stack[sp-1].Kind())
			}
			stack[sp-1] = value.Bool(b)
		case xCall, xSetOp:
			n := int(in.idx)
			v, err := builtin(in, stack[sp-n:sp])
			if err != nil {
				return err
			}
			sp -= n - 1
			stack[sp-1] = v
		case xRaise:
			return in.err
		}
	}
	return nil
}

// builtin applies a scalar function, or a set operator or `in`, to its
// operands: the library close-time evaluation uses, called from outside the
// hot-path dispatch loop.
func builtin(in *xInstr, args []value.Value) (value.Value, error) {
	if in.op == xCall {
		return expr.CallScalar(in.s, args)
	}
	return expr.SetOp(ast.BinOp(in.ab), args[0], args[1])
}

// intField reads a numeric entity field at its native integer width,
// preserving the Int value kind the interpreter produces (Int/Int arithmetic
// differs from Float: '+' stays integral, '/' promotes).
//
//saql:hotpath
func intField(e *event.Entity, f fld) int64 {
	switch f {
	case fldPID:
		return int64(e.PID)
	case fldSPort:
		return int64(e.SrcPort)
	case fldDPort:
		return int64(e.DstPort)
	}
	return 0
}

// evtIntField reads an integer event attribute.
//
//saql:hotpath
func evtIntField(ev *event.Event, f fld) int64 {
	switch f {
	case fldTime:
		return ev.Time.UnixNano()
	case fldID:
		return int64(ev.ID)
	}
	return 0
}

// card implements the |...| operator exactly as the interpreter does.
func card(v value.Value) (value.Value, error) {
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
		return value.Null, errCard(v.Kind())
	}
}

// Error constructors live outside the hot-path functions (fmt formatting
// allocates); they fire at most once per reported evaluation error.

func errNotBool(k value.Kind) error {
	return fmt.Errorf("expr: ! requires a boolean, got %s", k)
}

func errBoolOperand(op string, k value.Kind) error {
	return fmt.Errorf("expr: %s requires boolean operands, got %s", op, k)
}

func errUnaryOp(op byte) error {
	return fmt.Errorf("expr: unknown unary operator %q", string(op))
}

func errCard(k value.Kind) error {
	return fmt.Errorf("expr: |...| requires a set or number, got %s", k)
}

// compiler accumulates instructions and tracks operand-stack depth.
type compiler struct {
	b        Binding
	ins      []xInstr
	depth    int
	maxDepth int
}

func (c *compiler) emit(in xInstr, stackDelta int) {
	c.ins = append(c.ins, in)
	c.depth += stackDelta
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
}

// raise emits the failure of a statically erroneous node. stackDelta is what
// the node would have done to the stack, keeping the depth bookkeeping of the
// instructions after it (reachable past a short-circuit) consistent.
func (c *compiler) raise(err error, stackDelta int) {
	c.emit(xInstr{op: xRaise, err: err}, stackDelta)
}

// binInstr maps the eager binary operators to their instruction; && and ||
// compile to jumps (logical).
var binInstr = map[ast.BinOp]xInstr{
	ast.OpEq: {op: xEq}, ast.OpNe: {op: xNe},
	ast.OpLt: {op: xLt}, ast.OpLe: {op: xLe}, ast.OpGt: {op: xGt}, ast.OpGe: {op: xGe},
	ast.OpAdd: {op: xArith, ab: '+'}, ast.OpSub: {op: xArith, ab: '-'}, ast.OpMul: {op: xArith, ab: '*'},
	ast.OpDiv: {op: xArith, ab: '/'}, ast.OpMod: {op: xArith, ab: '%'},
	ast.OpUnion: {op: xSetOp, ab: byte(ast.OpUnion), idx: 2}, ast.OpDiff: {op: xSetOp, ab: byte(ast.OpDiff), idx: 2},
	ast.OpIntersect: {op: xSetOp, ab: byte(ast.OpIntersect), idx: 2}, ast.OpIn: {op: xSetOp, ab: byte(ast.OpIn), idx: 2},
}

// expr compiles one node; the node's value ends up on top of the stack.
func (c *compiler) expr(e ast.Expr) {
	// Constant subtrees fold to a single push — or, when folding fails, to
	// the failure the tree-walker would raise on every evaluation.
	if v, isConst, err := constEval(e); isConst {
		if err != nil {
			c.raise(err, 1)
		} else {
			c.emit(xInstr{op: xConst, val: v}, 1)
		}
		return
	}

	switch x := e.(type) {
	case *ast.Ident:
		c.ident(x.Name)
	case *ast.FieldExpr:
		c.field(x)
	case *ast.IndexExpr:
		c.raise(fmt.Errorf("expr: state index %s must be followed by a field access", x), 1)
	case *ast.CallExpr:
		for _, a := range x.Args {
			c.expr(a)
		}
		c.emit(xInstr{op: xCall, s: x.Func, idx: int32(len(x.Args))}, 1-len(x.Args))
	case *ast.UnaryExpr:
		c.expr(x.X)
		switch x.Op {
		case '!':
			c.emit(xInstr{op: xNot}, 0)
		case '-':
			c.emit(xInstr{op: xNeg}, 0)
		default:
			c.raise(errUnaryOp(x.Op), 0)
		}
	case *ast.CardExpr:
		c.expr(x.X)
		c.emit(xInstr{op: xCard}, 0)
	case *ast.BinaryExpr:
		if x.Op == ast.OpAnd || x.Op == ast.OpOr {
			c.logical(x)
			return
		}
		c.expr(x.Left)
		c.expr(x.Right)
		if in, ok := binInstr[x.Op]; ok {
			c.emit(in, -1)
		} else {
			c.raise(fmt.Errorf("expr: unsupported binary operator %s", x.Op), -1)
		}
	default:
		c.raise(fmt.Errorf("expr: unsupported expression %T", e), 1)
	}
}

// logical compiles && / || with short-circuit jump threading. A constant
// left side reaching here is the pass-through value (constEval folded the
// deciding value, a non-boolean and an error upstream), which reduces the
// node to the right operand plus a boolean coercion — exactly the
// tree-walker's final AsBool.
func (c *compiler) logical(x *ast.BinaryExpr) {
	opstr := x.Op.String()
	if _, lc, _ := constEval(x.Left); lc {
		c.expr(x.Right)
		c.emit(xInstr{op: xBool, s: opstr}, 0)
		return
	}
	c.expr(x.Left)
	jmp := len(c.ins)
	op := xAndJump
	if x.Op == ast.OpOr {
		op = xOrJump
	}
	c.emit(xInstr{op: op, s: opstr}, -1)
	c.expr(x.Right)
	c.emit(xInstr{op: xBool, s: opstr}, 0)
	c.ins[jmp].idx = int32(len(c.ins))
}

// ident compiles a bare identifier. Per-event expressions see no invariant
// variables and no state; the object binding shadows the subject, entity
// variables shadow the event alias, and an unbound name is null.
func (c *compiler) ident(name string) {
	switch {
	case name == "":
		// The per-event scope's state variable is the empty name.
		c.raise(fmt.Errorf("expr: state %q is not a value; access a field like %s.field", name, name), 1)
	case name == c.b.ObjVar:
		c.emit(xInstr{op: xObjDefault}, 1)
	case name == c.b.SubjVar:
		c.emit(xInstr{op: xSubjDefault}, 1)
	case name == c.b.Alias:
		c.raise(fmt.Errorf("expr: event alias %q is not a value; access an attribute like %s.amount", name, name), 1)
	default:
		c.emit(xInstr{op: xConst, val: value.Null}, 1)
	}
}

// field compiles base.attr accesses in the tree-walker's resolution order:
// cluster (no clustering per event: null), entity variables (object shadowing
// subject), event alias, then null for unbound bases. ss[k].f names no state
// variable outside a window close.
func (c *compiler) field(x *ast.FieldExpr) {
	switch base := x.Base.(type) {
	case *ast.Ident:
		name := base.Name
		switch {
		case name == "cluster" || name == "":
			c.emit(xInstr{op: xConst, val: value.Null}, 1)
		case name == c.b.ObjVar:
			c.entityAttr(false, name, c.b.ObjType, x.Field)
		case name == c.b.SubjVar:
			c.entityAttr(true, name, c.b.SubjType, x.Field)
		case name == c.b.Alias:
			c.eventAttr(name, x.Field)
		default:
			c.emit(xInstr{op: xConst, val: value.Null}, 1)
		}
	case *ast.IndexExpr:
		id, ok := base.Base.(*ast.Ident)
		switch {
		case !ok:
			c.raise(fmt.Errorf("expr: cannot index %s", base.Base), 1)
		case id.Name != "":
			c.raise(fmt.Errorf("expr: %q is not the state variable (%q)", id.Name, ""), 1)
		default:
			c.emit(xInstr{op: xConst, val: value.Null}, 1)
		}
	default:
		c.raise(fmt.Errorf("expr: unsupported field base %T", x.Base), 1)
	}
}

// entityAttr compiles a typed attribute load, or the failure of reading an
// attribute the bound type does not have.
func (c *compiler) entityAttr(subj bool, name string, typ event.EntityType, attr string) {
	f, isStr, ok := resolveEntityAttr(typ, attr)
	if !ok || attr == "" { // "" is the constraint default, not an attribute
		c.raise(fmt.Errorf("expr: entity %q (%s) has no attribute %q", name, typ, attr), 1)
		return
	}
	var op xOp
	switch {
	case subj && isStr:
		op = xSubjStr
	case subj:
		op = xSubjInt
	case isStr:
		op = xObjStr
	default:
		op = xObjInt
	}
	c.emit(xInstr{op: op, fld: f}, 1)
}

// eventAttr compiles an event-attribute load off the alias.
func (c *compiler) eventAttr(name, attr string) {
	f, _, ok := resolveEventAttr(attr)
	switch {
	case !ok:
		c.raise(fmt.Errorf("expr: event %q has no attribute %q", name, attr), 1)
	case f == fldAmount:
		c.emit(xInstr{op: xEvtFloat, fld: f}, 1)
	case f == fldAgent || f == fldOp:
		c.emit(xInstr{op: xEvtStr, fld: f}, 1)
	default: // time, id
		c.emit(xInstr{op: xEvtInt, fld: f}, 1)
	}
}

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
