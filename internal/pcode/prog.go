package pcode

import (
	"fmt"
	"math"
	"slices"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/value"
	"saql/internal/window"
)

// Scope says where the names an expression mentions live, so the compiler can
// turn each into a load. There are two: the per-event scope of one pattern
// (Binding.Scope) and the close scope the engine builds for alert conditions,
// return items, invariant updates and the clustering point. Both resolve names
// in one order: an invariant variable wins a bare identifier, then an entity
// variable, then an event alias; a field base is `cluster`, then the state
// variable, then an entity variable, then an event alias. A name nothing
// declares is null.
type Scope struct {
	Vars     []string    // invariant variables by declaration index (Frame.Vars)
	State    string      // window state variable; "": no state in scope
	Fields   []string    // its fields by index (History.Field)
	Cluster  bool        // cluster.* reads Frame.Cluster rather than null
	Entities []EntityVar // entity variables; of two with one name the later shadows
	Events   []EventVar  // event aliases
}

// EntityVar is one entity variable: its static type — sema gives a variable
// exactly one — and its slot in Frame.Entities, or SubjectSlot/ObjectSlot.
type EntityVar struct {
	Name string
	Type event.EntityType
	Slot int
}

// EventVar is one event alias and its slot in Frame.Events, or MatchedEvent.
type EventVar struct {
	Name string
	Slot int
}

// entity finds the entity variable name.
func (s *Scope) entity(name string) (EntityVar, bool) {
	for i := len(s.Entities) - 1; i >= 0; i-- {
		if s.Entities[i].Name == name {
			return s.Entities[i], true
		}
	}
	return EntityVar{}, false
}

// event finds the slot of the event alias name.
func (s *Scope) event(name string) (int, bool) {
	for _, v := range s.Events {
		if v.Name == name {
			return v.Slot, true
		}
	}
	return 0, false
}

// The per-event scope's slots: the frame's matched event and its two entities.
const (
	MatchedEvent = -1
	SubjectSlot  = -1
	ObjectSlot   = -2
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

// Scope is the per-event scope of the pattern: no invariant variables, no
// window state, no clustering.
func (b Binding) Scope() *Scope {
	s := &Scope{}
	if b.SubjVar != "" {
		s.Entities = append(s.Entities, EntityVar{Name: b.SubjVar, Type: b.SubjType, Slot: SubjectSlot})
	}
	if b.ObjVar != "" {
		s.Entities = append(s.Entities, EntityVar{Name: b.ObjVar, Type: b.ObjType, Slot: ObjectSlot})
	}
	if b.Alias != "" {
		s.Events = append(s.Events, EventVar{Name: b.Alias, Slot: MatchedEvent})
	}
	return s
}

// Frame is what a program's loads read; the query that runs the programs owns
// one. Per event it holds the matched event. At close it holds the
// slot-indexed bindings of a closed window's group (window.Snapshot) or of a
// completed match (matcher.Match) — a nil or missing slot is a variable the
// group did not bind and reads as null — with the group's state history,
// invariant variables and clustering outcome.
type Frame struct {
	Event    *event.Event
	Entities []*event.Entity
	Events   []*event.Event
	History  *window.History
	Vars     []value.Value
	Cluster  Cluster
}

// Cluster is one group's clustering outcome: cluster.outlier, .cluster_id
// and .size.
type Cluster struct {
	Outlier  bool
	ID, Size int
}

// entity returns the entity in slot i, nil if unbound.
//
//saql:hotpath
func (f *Frame) entity(i int32) *event.Entity {
	switch {
	case i == SubjectSlot:
		return &f.Event.Subject
	case i == ObjectSlot:
		return &f.Event.Object
	case int(i) < len(f.Entities):
		return f.Entities[i]
	}
	return nil
}

// event returns the event in slot i, nil if unbound.
//
//saql:hotpath
func (f *Frame) event(i int32) *event.Event {
	switch {
	case i == MatchedEvent:
		return f.Event
	case int(i) < len(f.Events):
		return f.Events[i]
	}
	return nil
}

// xOp is a stack-machine opcode.
type xOp uint8

const (
	xConst xOp = iota // push consts[in.idx]

	// Loads, the instructions that read the frame: a subtree compiled without
	// one is constant. An unbound slot pushes null.
	xEntStr     // push String(entity in.idx's <fld>)
	xEntInt     // push Int(entity in.idx's <fld>)
	xEvt        // push event in.idx's <fld>
	xVar        // push Vars[in.idx]
	xState      // push History.Field(in.k, in.idx): ss[k].f
	xCluster    // push Cluster.<fld>
	xRaiseBound // fail with in.err if entity (in.ab 0) or event (1) slot in.idx is bound, else push null

	xNot     // pop b; push !b (error on non-boolean)
	xNeg     // pop v; push -v (null stays null)
	xCard    // pop v; push |v|
	xEq      // pop r, l; push l == r (wildcard-aware)
	xNe      // pop r, l; push l != r
	xLt      // pop r, l; ordered comparisons (null -> false)
	xLe      //
	xGt      //
	xGe      //
	xArith   // pop r, l; push l <in.ab> r (null propagates)
	xAndJump // pop b; false: push false, skip in.idx instructions
	xOrJump  // pop b; true: push true, skip in.idx instructions
	xBool    // pop v; push Bool(v) (error on non-boolean)
	xCall    // pop in.idx args; push in.s(args...)
	xSetOp   // pop r, l; push l <union|diff|intersect|in> r, in.ab the ast.BinOp
	xRaise   // fail with in.err: a statically erroneous subexpression was reached
)

// reads reports whether the instruction reads the frame.
func (op xOp) reads() bool { return op >= xEntStr && op <= xRaiseBound }

// xInstr is one stack-machine instruction.
type xInstr struct {
	op  xOp
	fld fld    // attribute selector for load ops
	ab  byte   // arithmetic operator for xArith ('+','-','*','/','%'); ast.BinOp for xSetOp; slot kind for xRaiseBound
	idx int32  // constant, slot, variable or field index for loads; instructions skipped by xAndJump/xOrJump; operand count for xCall/xSetOp
	k   int32  // history index for xState
	s   string // operator text for xAndJump/xOrJump/xBool errors; function name for xCall
	err error  // what xRaise and xRaiseBound return
}

// Prog is a compiled expression: a flat instruction sequence over an operand
// stack whose depth is known at compile time, evaluated against a frame
// without building an environment. Values are a tagged struct, so nothing
// boxes or allocates.
type Prog struct {
	ins    []xInstr
	consts []value.Value // what xConst pushes: out of line, so instructions stay small
	depth  int           // operand-stack high-water mark
}

// CompileExpr compiles e in scope s. Every expression compiles: a shape that
// can only fail (a bare event alias, an attribute the bound type lacks, an
// erroring constant subtree) becomes a raise at the point in evaluation order
// where the failure would surface, so short-circuits that skip it still do.
func CompileExpr(e ast.Expr, s *Scope) *Prog {
	c := compiler{s: s}
	c.expr(e)
	return &Prog{ins: c.ins, consts: c.consts, depth: c.maxDepth}
}

// Depth is how many operand-stack slots Run needs.
func (p *Prog) Depth() int { return p.depth }

// Equal reports whether p and o are the same program: the same instructions
// over the same constants. Run is a pure function of the frame, so equal
// programs give equal results — value or error text — on every frame. (The
// converse does not hold: equivalent expressions written differently compile
// differently, and Equal says no.)
func (p *Prog) Equal(o *Prog) bool {
	return slices.EqualFunc(p.ins, o.ins, func(a, b xInstr) bool {
		ae, be := a.err, b.err
		a.err, b.err = nil, nil
		return a == b && (ae == nil) == (be == nil) && (ae == nil || ae.Error() == be.Error())
	}) && slices.EqualFunc(p.consts, o.consts, func(a, b value.Value) bool {
		switch {
		case a.Kind() != b.Kind():
			return false
		case a.Kind() == value.KindInt: // value.Equal compares numbers as floats
			return a.IntVal() == b.IntVal()
		case a.Kind() == value.KindFloat: // bitwise: NaN is itself, 0 is not -0
			return math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal())
		}
		return a.Equal(b)
	})
}

// Run evaluates the program against a frame on the caller's operand stack —
// at least Depth slots, the caller's so that a query runs all its programs on
// one — and leaves the value in stack[0]. After an error the stack holds
// nothing meaningful. It is the one place expression opcodes are interpreted:
// per event, at window close, on completed matches, and by the compiler
// itself to fold constants.
//
//saql:hotpath
func (p *Prog) Run(f *Frame, stack []value.Value) error {
	sp := 0
	ins := p.ins
	for i := 0; i < len(ins); i++ {
		in := &ins[i]
		switch in.op {
		case xConst:
			stack[sp] = p.consts[in.idx]
			sp++
		case xEntStr, xEntInt:
			e := f.entity(in.idx)
			switch {
			case e == nil:
				stack[sp] = value.Null
			case in.op == xEntStr:
				s, _ := strField(e, in.fld)
				stack[sp] = value.String(s)
			default:
				stack[sp] = value.Int(intField(e, in.fld))
			}
			sp++
		case xEvt:
			ev := f.event(in.idx)
			switch {
			case ev == nil:
				stack[sp] = value.Null
			case in.fld == fldAmount:
				stack[sp] = value.Float(ev.Amount)
			case in.fld == fldAgent || in.fld == fldOp:
				s, _ := evtStrField(ev, in.fld)
				stack[sp] = value.String(s)
			default: // time, id
				stack[sp] = value.Int(evtIntField(ev, in.fld))
			}
			sp++
		case xVar:
			stack[sp] = f.Vars[in.idx]
			sp++
		case xState:
			stack[sp] = f.History.Field(int(in.k), int(in.idx))
			sp++
		case xCluster:
			switch in.fld {
			case fldOutlier:
				stack[sp] = value.Bool(f.Cluster.Outlier)
			case fldClusterID:
				stack[sp] = value.Int(int64(f.Cluster.ID))
			default:
				stack[sp] = value.Int(int64(f.Cluster.Size))
			}
			sp++
		case xRaiseBound:
			if in.ab == boundEntity && f.entity(in.idx) != nil || in.ab == boundEvent && f.event(in.idx) != nil {
				return in.err
			}
			stack[sp] = value.Null
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
				i += int(in.idx)
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
				i += int(in.idx)
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
// operands, called from outside the hot-path dispatch loop.
func builtin(in *xInstr, args []value.Value) (value.Value, error) {
	if in.op == xCall {
		return CallScalar(in.s, args)
	}
	return SetOp(ast.BinOp(in.ab), args[0], args[1])
}

// intField reads a numeric entity field at its native integer width,
// preserving the Int value kind (Int/Int arithmetic differs from Float: '+'
// stays integral, '/' promotes).
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

// card implements the |...| operator.
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
	s        *Scope
	ins      []xInstr
	consts   []value.Value
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

// push emits the push of a constant.
func (c *compiler) push(v value.Value) {
	c.consts = append(c.consts, v)
	c.emit(xInstr{op: xConst, idx: int32(len(c.consts) - 1)}, 1)
}

func (c *compiler) null() { c.push(value.Null) }

// raise emits the failure of a statically erroneous node. stackDelta is what
// the node would have done to the stack, keeping the depth bookkeeping of the
// instructions after it (reachable past a short-circuit) consistent.
func (c *compiler) raise(err error, stackDelta int) {
	c.emit(xInstr{op: xRaise, err: err}, stackDelta)
}

// Slot kinds of xRaiseBound.
const (
	boundEntity byte = iota
	boundEvent
)

// raiseBound emits the failure of reading a variable in a way its value does
// not allow. It surfaces only where the variable is bound: a slot a group did
// not bind reads as null whatever is asked of it.
func (c *compiler) raiseBound(kind byte, slot int, err error) {
	c.emit(xInstr{op: xRaiseBound, ab: kind, idx: int32(slot), err: err}, 1)
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

// expr compiles one node — its value ends up on top of the stack — and folds
// what it emitted if that turns out to be constant.
func (c *compiler) expr(e ast.Expr) {
	start, depth := len(c.ins), c.depth
	c.node(e)
	c.fold(start, depth)
}

// fold reduces the instructions of the node compiled from start on (at
// operand depth depth) when none of them reads the frame: the node is
// constant, so it is evaluated here, by running those instructions, and
// becomes a single push of its value — or, when evaluation fails, the raise
// of the failure every evaluation would meet. A node whose first instruction
// is a raise fails before anything else can happen and is that raise, whatever
// follows.
func (c *compiler) fold(start, depth int) {
	code := c.ins[start:]
	if code[0].op != xRaise {
		if len(code) == 1 || slices.ContainsFunc(code, func(in xInstr) bool { return in.op.reads() }) {
			return
		}
		stack := make([]value.Value, c.maxDepth-depth)
		if err := (&Prog{ins: code, consts: c.consts}).Run(&Frame{}, stack); err != nil {
			code[0] = xInstr{op: xRaise, err: err}
		} else {
			c.consts = append(c.consts, stack[0])
			code[0] = xInstr{op: xConst, idx: int32(len(c.consts) - 1)}
		}
	}
	c.ins = c.ins[:start+1]
	c.depth = depth + 1
}

func (c *compiler) node(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Literal:
		c.push(x.Val)
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

// logical compiles && / || with short-circuit jump threading. A left side
// that folded to a constant is decided here: a non-boolean fails, the
// deciding value (false for &&, true for ||) is the node's value and the
// right side is never compiled, and the other value reduces the node to its
// right operand plus a boolean coercion.
func (c *compiler) logical(x *ast.BinaryExpr) {
	opstr := x.Op.String()
	start := len(c.ins)
	c.expr(x.Left)
	if left := &c.ins[start]; len(c.ins) == start+1 && left.op == xRaise {
		return // the node fails where its left side does
	} else if len(c.ins) == start+1 && left.op == xConst {
		val := &c.consts[left.idx]
		b, ok := val.AsBool()
		switch {
		case !ok:
			*left = xInstr{op: xRaise, err: errBoolOperand(opstr, val.Kind())}
		case b == (x.Op == ast.OpOr):
			*val = value.Bool(b)
		default:
			c.ins = c.ins[:start]
			c.depth--
			c.expr(x.Right)
			c.emit(xInstr{op: xBool, s: opstr}, 0)
		}
		return
	}
	jmp := len(c.ins)
	op := xAndJump
	if x.Op == ast.OpOr {
		op = xOrJump
	}
	c.emit(xInstr{op: op, s: opstr}, -1)
	c.expr(x.Right)
	c.emit(xInstr{op: xBool, s: opstr}, 0)
	c.ins[jmp].idx = int32(len(c.ins) - jmp - 1)
}

// ident compiles a bare identifier: an invariant variable, an entity
// variable's default attribute, or the failure of using an event alias or the
// state variable as a value.
func (c *compiler) ident(name string) {
	s := c.s
	if i := slices.Index(s.Vars, name); i >= 0 {
		c.emit(xInstr{op: xVar, idx: int32(i)}, 1)
	} else if v, ok := s.entity(name); ok {
		f, _, _ := resolveEntityAttr(v.Type, "") // the type's default attribute
		c.emit(xInstr{op: xEntStr, fld: f, idx: int32(v.Slot)}, 1)
	} else if at, ok := s.event(name); ok {
		c.raiseBound(boundEvent, at, fmt.Errorf("expr: event alias %q is not a value; access an attribute like %s.amount", name, name))
	} else if name == s.State {
		c.raise(fmt.Errorf("expr: state %q is not a value; access a field like %s.field", name, name), 1)
	} else {
		c.null()
	}
}

// field compiles base.attr and ss[k].attr accesses.
func (c *compiler) field(x *ast.FieldExpr) {
	s := c.s
	switch base := x.Base.(type) {
	case *ast.Ident:
		name := base.Name
		if name == "cluster" {
			c.clusterField(x.Field)
		} else if s.State != "" && name == s.State {
			c.stateField(0, x.Field)
		} else if v, ok := s.entity(name); ok {
			c.entityAttr(name, v, x.Field)
		} else if at, ok := s.event(name); ok {
			c.eventAttr(name, at, x.Field)
		} else {
			c.null()
		}
	case *ast.IndexExpr:
		id, ok := base.Base.(*ast.Ident)
		switch {
		case !ok:
			c.raise(fmt.Errorf("expr: cannot index %s", base.Base), 1)
		case id.Name != s.State:
			c.raise(fmt.Errorf("expr: %q is not the state variable (%q)", id.Name, s.State), 1)
		case s.State == "":
			c.null()
		default:
			c.stateField(base.Index, x.Field)
		}
	default:
		c.raise(fmt.Errorf("expr: unsupported field base %T", x.Base), 1)
	}
}

// clusterField compiles cluster.<field>: null where nothing clusters.
func (c *compiler) clusterField(field string) {
	sel := fldNone
	switch field {
	case "outlier":
		sel = fldOutlier
	case "cluster_id":
		sel = fldClusterID
	case "size":
		sel = fldClusterSize
	}
	switch {
	case !c.s.Cluster:
		c.null()
	case sel == fldNone:
		c.raise(fmt.Errorf("expr: unknown cluster field %q", field), 1)
	default:
		c.emit(xInstr{op: xCluster, fld: sel}, 1)
	}
}

// stateField compiles ss[k].<field>; a field the state does not declare is
// null, like history that does not exist yet.
func (c *compiler) stateField(k int, field string) {
	if i := slices.Index(c.s.Fields, field); i >= 0 {
		c.emit(xInstr{op: xState, k: int32(k), idx: int32(i)}, 1)
	} else {
		c.null()
	}
}

// entityAttr compiles a typed attribute load, or the failure of reading an
// attribute the variable's type does not have.
func (c *compiler) entityAttr(name string, v EntityVar, attr string) {
	f, isStr, ok := resolveEntityAttr(v.Type, attr)
	switch {
	case !ok || attr == "": // "" is the constraint default, not an attribute
		c.raiseBound(boundEntity, v.Slot, fmt.Errorf("expr: entity %q (%s) has no attribute %q", name, v.Type, attr))
	case isStr:
		c.emit(xInstr{op: xEntStr, fld: f, idx: int32(v.Slot)}, 1)
	default:
		c.emit(xInstr{op: xEntInt, fld: f, idx: int32(v.Slot)}, 1)
	}
}

// eventAttr compiles an event-attribute load off the alias.
func (c *compiler) eventAttr(name string, at int, attr string) {
	if f, _, ok := resolveEventAttr(attr); ok {
		c.emit(xInstr{op: xEvt, fld: f, idx: int32(at)}, 1)
	} else {
		c.raiseBound(boundEvent, at, fmt.Errorf("expr: event %q has no attribute %q", name, attr))
	}
}
