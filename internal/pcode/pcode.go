// Package pcode is the engine's one evaluator: it compiles everything a query
// evaluates — pattern predicates and global constraints, aggregation arguments
// and group-by keys per event; alert conditions, return items, invariant
// updates and clustering points at window close and on completed matches — to
// flat bytecode executed by small dispatch loops.
//
// Three program shapes exist:
//
//   - EntityProg: an entity pattern's attribute constraints compiled to typed
//     comparison instructions. Field accesses are resolved to direct struct
//     reads at compile time (every constraint value is a literal, and
//     attribute validity depends only on the (entity type, name) pair), and
//     string equality compares interned symbol IDs (internal/symtab) when
//     both sides carry one, with a case-folding string fallback otherwise.
//   - EventProg: the same for a query's global constraints (agentid, amount,
//     optype, ...), compiled over whole events.
//   - Prog (prog.go): a stack machine for general expressions, compiled in a
//     Scope — one pattern's per-event bindings, or the close scope — that
//     resolves every name to a load off the Frame the program runs against.
//     The operator semantics (null propagation, typed comparison,
//     short-circuit, |x|) are written once, in Prog.Run: the compiler folds a
//     constant subtree by running the instructions it has just emitted.
//
// Compilation is total: every constraint and every expression yields a
// program. What cannot match compiles to a predicate that never does, and
// what cannot evaluate compiles to an instruction raising the evaluation
// error where it would surface. The attribute table (resolveEntityAttr,
// resolveEventAttr) is the language's only one: semantic analysis validates
// through it. The differential suite in this package pins the programs —
// result and error string — to their test-only oracles: the interpreting
// predicate closures (pred_ref_test.go), the recursive constant folder
// (fold_ref_test.go) and the AST tree-walker internal/expr, which no shipped
// binary links.
package pcode

import (
	"strings"
	"sync/atomic"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/symtab"
	"saql/internal/value"
)

// fallbackSink resolves the counter a program charges its string fallbacks
// to: compiled string comparisons that could not use symbol IDs and fell
// back to a string compare (folded in place when both sides are ASCII, or
// the allocating value.WildcardMatch otherwise). A high rate relative to
// event volume means the stream's hot values are not reaching the dictionary
// (programmatic submission, table overflow, non-ASCII data). An engine
// passes its own sink so it attributes fallbacks to its own queries; a
// program compiled with a nil sink counts into a counter of its own.
func fallbackSink(fb *atomic.Int64) *atomic.Int64 {
	if fb == nil {
		return new(atomic.Int64)
	}
	return fb
}

// fld selects one directly-readable field of an entity or event.
type fld uint8

const (
	fldNone fld = iota
	// Entity string fields.
	fldExe
	fldUser
	fldCmd
	fldPath
	fldBase // basename of Path
	fldSrcIP
	fldDstIP
	fldProto
	// Entity numeric fields.
	fldPID
	fldSPort
	fldDPort
	// Event fields (EventProg / Prog only).
	fldAmount
	fldAgent
	fldTime
	fldID
	fldOp
	// Clustering outcome fields (Prog only).
	fldOutlier
	fldClusterID
	fldClusterSize
)

// HasEntityAttr reports whether name is an attribute of entity type t: what
// semantic analysis accepts is what the compilers below can load.
func HasEntityAttr(t event.EntityType, name string) bool {
	_, _, ok := resolveEntityAttr(t, name)
	return ok && name != ""
}

// HasEventAttr reports whether name is an event-level attribute.
func HasEventAttr(name string) bool {
	_, _, ok := resolveEventAttr(name)
	return ok
}

// resolveEntityAttr maps a SAQL attribute name to a field selector for one
// entity type: the attribute table, with resolveEventAttr, of the language
// (attribute names follow the paper, common aliases accepted). "" is the
// default attribute a bare constraint matches against. str reports whether
// the field reads as a string (false: numeric). ok is false when the attribute
// does not exist for the type — that read fails, so constraint compilation
// turns the predicate constant-false and expression compilation raises the
// error.
func resolveEntityAttr(t event.EntityType, name string) (f fld, str bool, ok bool) {
	switch t {
	case event.EntityProcess:
		switch name {
		case "", "exe_name", "exename", "exe", "name":
			return fldExe, true, true
		case "pid":
			return fldPID, false, true
		case "user", "username":
			return fldUser, true, true
		case "cmdline", "cmd", "args":
			return fldCmd, true, true
		}
	case event.EntityFile:
		switch name {
		case "", "name", "path", "filename", "file_name":
			return fldPath, true, true
		case "basename":
			return fldBase, true, true
		}
	case event.EntityNetConn:
		switch name {
		case "":
			return fldDstIP, true, true
		case "srcip", "src_ip", "sip":
			return fldSrcIP, true, true
		case "dstip", "dst_ip", "dip":
			return fldDstIP, true, true
		case "sport", "src_port", "srcport":
			return fldSPort, false, true
		case "dport", "dst_port", "dstport":
			return fldDPort, false, true
		case "protocol", "proto":
			return fldProto, true, true
		}
	}
	return fldNone, false, false
}

// resolveEventAttr maps an event-level attribute name to a selector: amount,
// agentid, time (unix nanoseconds), id and optype, with their aliases. str
// reports string-valued selectors.
func resolveEventAttr(name string) (f fld, str bool, ok bool) {
	switch name {
	case "amount", "amt", "bytes":
		return fldAmount, false, true
	case "agentid", "agent_id", "host":
		return fldAgent, true, true
	case "time", "ts", "timestamp":
		return fldTime, false, true
	case "id":
		return fldID, false, true
	case "optype", "op", "operation":
		return fldOp, true, true
	}
	return fldNone, false, false
}

// strField reads a string field and its symbol ID (0 when the field carries
// no symbol).
//
//saql:hotpath
func strField(e *event.Entity, f fld) (string, uint32) {
	switch f {
	case fldExe:
		return e.ExeName, e.ExeSym
	case fldUser:
		return e.User, e.UserSym
	case fldCmd:
		return e.CmdLine, 0
	case fldPath:
		return e.Path, 0
	case fldBase:
		return baseName(e.Path), 0
	case fldSrcIP:
		return e.SrcIP, e.SrcIPSym
	case fldDstIP:
		return e.DstIP, e.DstIPSym
	case fldProto:
		return e.Protocol, e.ProtoSym
	}
	return "", 0
}

// numField reads a numeric entity field as float64 — the representation
// value.Value comparisons reduce numeric pairs to.
//
//saql:hotpath
func numField(e *event.Entity, f fld) float64 {
	switch f {
	case fldPID:
		return float64(e.PID)
	case fldSPort:
		return float64(e.SrcPort)
	case fldDPort:
		return float64(e.DstPort)
	}
	return 0
}

// baseName mirrors event's basename attribute without allocating.
func baseName(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' || p[i] == '\\' {
			return p[i+1:]
		}
	}
	return p
}

// eOp is an entity/event predicate opcode. Every instruction is an ANDed
// conjunct: the dispatch loop fails the predicate on the first false one.
type eOp uint8

const (
	eStrEq   eOp = iota // string equality (symbol fast path, fold fallback)
	eStrNe              // negated eStrEq
	eLike               // '%'-wildcard match
	eNotLike            // negated eLike
	eStrOrd             // ordered string comparison (case-sensitive, as value.Compare)
	eNumCmp             // numeric comparison, all six operators
)

// eInstr is one compiled constraint.
type eInstr struct {
	op   eOp
	fld  fld
	cmp  ast.CompareOp
	sym  uint32  // interned symbol of the constant (0: none)
	fold bool    // low is a valid pre-lowered ASCII form of raw
	low  string  // strings.ToLower(raw), ASCII constants only
	raw  string  // original constant (WildcardMatch fallback)
	num  float64 // numeric constant
}

// EntityProg is a compiled entity predicate: type check plus a flat conjunct
// list. never marks predicates that are statically unsatisfiable (invalid
// attribute, impossible kind mix): no entity matches, and nothing executes.
type EntityProg struct {
	typ   event.EntityType
	never bool
	ins   []eInstr
	fb    *atomic.Int64 // fallback counter (never nil)
}

// CompileEntity compiles an entity pattern's constraints. String-compare
// fallbacks at Match time are counted into fb (see fallbackSink).
func CompileEntity(p *ast.EntityPattern, fb *atomic.Int64) *EntityProg {
	prog := &EntityProg{typ: p.Type, fb: fallbackSink(fb)}
	for _, c := range p.Constraints {
		// An attribute invalid for the type fails every entity of the type.
		f, isStr, ok := resolveEntityAttr(p.Type, c.Attr)
		if !ok || compileCheck(&prog.ins, f, isStr, c.Op, c.Val.Val) {
			prog.never = true
			break
		}
	}
	return prog
}

// compileCheck compiles one constraint against a resolved field, appending
// its instruction to ins — nothing for a statically true constraint — and
// reporting whether the constraint is statically false.
func compileCheck(ins *[]eInstr, f fld, isStr bool, cmp ast.CompareOp, want value.Value) (never bool) {
	switch k := want.Kind(); {
	case k == value.KindString && isStr:
		raw := want.Str()
		in := eInstr{fld: f, cmp: cmp, raw: raw}
		if isASCII(raw) {
			in.fold = true
			in.low = strings.ToLower(raw)
		}
		switch cmp {
		case ast.CmpEq, ast.CmpNe:
			if strings.ContainsRune(raw, '%') {
				in.op = eLike
				if cmp == ast.CmpNe {
					in.op = eNotLike
				}
			} else {
				in.op = eStrEq
				if cmp == ast.CmpNe {
					in.op = eStrNe
				}
				in.sym = symtab.Intern(raw)
			}
		default:
			in.op = eStrOrd
		}
		*ins = append(*ins, in)
		return false

	case want.IsNumeric() && !isStr:
		num, _ := want.AsFloat()
		*ins = append(*ins, eInstr{op: eNumCmp, fld: f, cmp: cmp, num: num})
		return false

	default:
		// The field's kind and the constant's differ — a string against a
		// number, or anything against a bool, null or set constant (`pid =
		// true` parses). Values of different kinds are never equal and never
		// ordered, so only != holds, and it holds always.
		return cmp != ast.CmpNe
	}
}

// Match runs the compiled predicate against one entity: the bytecode
// dispatch loop of pattern matching.
//
//saql:hotpath
func (p *EntityProg) Match(e *event.Entity) bool {
	if e.Type != p.typ || p.never {
		return false
	}
	for i := range p.ins {
		in := &p.ins[i]
		ok := false
		switch in.op {
		case eStrEq, eStrNe:
			got, gsym := strField(e, in.fld)
			var eq bool
			switch {
			case gsym != 0 && in.sym != 0:
				// Both sides interned: symbol equality IS case-folded string
				// equality (the dictionary is canonical under ToLower).
				eq = gsym == in.sym
			case in.fold && isASCII(got):
				eq = foldEqASCII(in.low, got)
				p.fb.Add(1)
			default:
				eq = value.WildcardMatch(in.raw, got)
				p.fb.Add(1)
			}
			ok = eq == (in.op == eStrEq)
		case eLike, eNotLike:
			got, _ := strField(e, in.fld)
			var m bool
			if in.fold && isASCII(got) {
				m = likeFoldASCII(in.low, got)
			} else {
				m = value.WildcardMatch(in.raw, got)
				p.fb.Add(1)
			}
			ok = m == (in.op == eLike)
		case eStrOrd:
			got, _ := strField(e, in.fld)
			ok = cmpOK(strings.Compare(got, in.raw), in.cmp)
		case eNumCmp:
			ok = numCmpOK(numField(e, in.fld), in.num, in.cmp)
		}
		if !ok {
			return false
		}
	}
	return true
}

// EventProg is a compiled global-constraint predicate over whole events.
type EventProg struct {
	never bool
	ins   []eInstr
	fb    *atomic.Int64 // fallback counter (never nil)
}

// CompileGlobals compiles a query's global constraints; none match every
// event. fb receives string-fallback counts (see fallbackSink).
func CompileGlobals(globals []*ast.Constraint, fb *atomic.Int64) *EventProg {
	prog := &EventProg{fb: fallbackSink(fb)}
	for _, g := range globals {
		// An unknown event attribute fails every event.
		f, isStr, ok := resolveEventAttr(g.Attr)
		if !ok || compileCheck(&prog.ins, f, isStr, g.Op, g.Val.Val) {
			prog.never = true
			break
		}
	}
	return prog
}

// AgentEq reports the agentid the predicate pins an event to: the constant of
// its first equality on the event's agentid (under any of the attribute's
// names), folded by strings.ToLower. That is the form both compare paths
// reduce to — symbol equality is equality under ToLower, and so is the
// string fallback — so an event whose agentid folds to anything else fails
// the predicate. ok is false for a predicate that never matches and for one
// with no such equality: none on agentid, or only != and '%' patterns.
func (p *EventProg) AgentEq() (agent string, ok bool) {
	if p.never {
		return "", false
	}
	for i := range p.ins {
		if in := &p.ins[i]; in.op == eStrEq && in.fld == fldAgent {
			return strings.ToLower(in.raw), true
		}
	}
	return "", false
}

// evtStrField reads a string-valued event attribute and its symbol.
//
//saql:hotpath
func evtStrField(ev *event.Event, f fld) (string, uint32) {
	switch f {
	case fldAgent:
		return ev.AgentID, ev.AgentSym
	case fldOp:
		return ev.Op.String(), 0
	}
	return "", 0
}

// evtNumField reads a numeric event attribute as float64. Time reduces
// through float64 exactly like the interpreter, which compares
// value.Int(UnixNano) via AsFloat.
//
//saql:hotpath
func evtNumField(ev *event.Event, f fld) float64 {
	switch f {
	case fldAmount:
		return ev.Amount
	case fldTime:
		return float64(ev.Time.UnixNano())
	case fldID:
		return float64(int64(ev.ID))
	}
	return 0
}

// Match runs the compiled global predicate against one event.
//
//saql:hotpath
func (p *EventProg) Match(ev *event.Event) bool {
	if p.never {
		return false
	}
	for i := range p.ins {
		in := &p.ins[i]
		ok := false
		switch in.op {
		case eStrEq, eStrNe:
			got, gsym := evtStrField(ev, in.fld)
			var eq bool
			switch {
			case gsym != 0 && in.sym != 0:
				eq = gsym == in.sym
			case in.fold && isASCII(got):
				eq = foldEqASCII(in.low, got)
				p.fb.Add(1)
			default:
				eq = value.WildcardMatch(in.raw, got)
				p.fb.Add(1)
			}
			ok = eq == (in.op == eStrEq)
		case eLike, eNotLike:
			got, _ := evtStrField(ev, in.fld)
			var m bool
			if in.fold && isASCII(got) {
				m = likeFoldASCII(in.low, got)
			} else {
				m = value.WildcardMatch(in.raw, got)
				p.fb.Add(1)
			}
			ok = m == (in.op == eLike)
		case eStrOrd:
			got, _ := evtStrField(ev, in.fld)
			ok = cmpOK(strings.Compare(got, in.raw), in.cmp)
		case eNumCmp:
			ok = numCmpOK(evtNumField(ev, in.fld), in.num, in.cmp)
		}
		if !ok {
			return false
		}
	}
	return true
}

// cmpOK applies an ordered comparison operator to a three-way compare
// result (Eq/Ne never reach here).
func cmpOK(c int, op ast.CompareOp) bool {
	switch op {
	case ast.CmpLt:
		return c < 0
	case ast.CmpLe:
		return c <= 0
	case ast.CmpGt:
		return c > 0
	case ast.CmpGe:
		return c >= 0
	}
	return false
}

// numCmpOK compares two numerics the way value.Equal/value.Compare do:
// through float64.
func numCmpOK(a, b float64, op ast.CompareOp) bool {
	switch op {
	case ast.CmpEq:
		return a == b
	case ast.CmpNe:
		return a != b
	case ast.CmpLt:
		return a < b
	case ast.CmpLe:
		return a <= b
	case ast.CmpGt:
		return a > b
	case ast.CmpGe:
		return a >= b
	}
	return false
}

// isASCII reports whether s is pure 7-bit. The fold fast paths require it:
// for ASCII strings, byte-wise case folding equals strings.ToLower, so the
// non-allocating comparisons below reproduce value.WildcardMatch exactly.
//
//saql:hotpath
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// foldByte lowers one ASCII byte.
//
//saql:hotpath
func foldByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// foldEqASCII reports ToLower(s) == low for a pre-lowered ASCII low and an
// ASCII s, without allocating.
//
//saql:hotpath
func foldEqASCII(low, s string) bool {
	if len(low) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if foldByte(s[i]) != low[i] {
			return false
		}
	}
	return true
}

// likeFoldASCII is value's likeMatch over a pre-lowered ASCII pattern and an
// ASCII subject folded byte-by-byte: the same two-pointer '%' backtracking,
// minus the two ToLower allocations.
//
//saql:hotpath
func likeFoldASCII(p, s string) bool {
	var pi, si int
	star := -1
	match := 0
	for si < len(s) {
		if pi < len(p) && p[pi] == foldByte(s[si]) {
			pi++
			si++
			continue
		}
		if pi < len(p) && p[pi] == '%' {
			star = pi
			match = si
			pi++
			continue
		}
		if star != -1 {
			pi = star + 1
			match++
			si = match
			continue
		}
		return false
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
