// Package codecpair verifies the engine's encode/decode symmetry invariant:
// for every wire-format codec (the EncodeState/DecodeState split across agg,
// window, matcher, invariant and engine/state.go, the snapshot
// container payload, the dist frame payloads, and the wire value/entity/event
// codecs themselves), the decode half must read exactly the wire-primitive
// sequence the encode half writes, in the same order — and every codec must
// have both halves. Before this analyzer, drift between the halves only
// surfaced as a seed-dependent fuzz or conformance failure.
//
// # What is compared
//
// Encode functions (names matching Append*/append*/Encode*/encode*) are
// reduced to the ordered sequence of wire operations they perform:
//
//   - calls to the wire appenders (wire.AppendUvarint, wire.AppendString,
//     ...), normalized to a primitive kind (AppendTime is a Varint on the
//     wire; Reader.Count reads a Uvarint);
//   - raw single-byte appends (append(b, tagByte)) and []byte literals,
//     normalized to Byte;
//   - calls to other codec functions in this module (appendMembers,
//     agg.AppendState, ...), normalized to a pair key both halves share.
//
// Decode functions (Read*/read*/Decode*/decode*/Restore*/restore*) reduce
// the same way over *wire.Reader method calls. Control flow is preserved
// structurally: loops compare against loops, conditional branches against
// branches (alternatives match as a multiset, so a tag switch whose encode
// writes the tag inside each case still matches a decode that reads it once
// before switching), and error-handling branches are pruned.
//
// Container framing done with encoding/binary directly (snapshot magic and
// CRC, storage record headers, dist frame headers) is deliberately out of
// scope: those bytes are covered by the format fuzzers; this analyzer owns
// the wire-level payloads, which is where silent field drift lives.
//
// A pair can be excluded with //saql:codecpair-ignore in the function's doc
// comment (state the reason after the directive).
package codecpair

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"saql/internal/analysis"
)

// Analyzer is the codecpair pass.
var Analyzer = &analysis.Analyzer{
	Name: "codecpair",
	Doc:  "check that every wire codec's decode half reads exactly the primitive sequence its encode half writes",
	Run:  run,
}

// side distinguishes which half of a codec pair is being extracted.
type side int

const (
	encSide side = iota
	decSide
)

// Primitive kinds, post-normalization (AppendTime == Varint on the wire,
// Reader.Count == Uvarint).
const (
	kUvarint = "Uvarint"
	kVarint  = "Varint"
	kString  = "String"
	kBytes   = "Bytes"
	kBool    = "Bool"
	kUint32  = "Uint32"
	kFloat64 = "Float64"
	kByte    = "Byte"
	kValue   = "Value"
	kEntity  = "Entity"
	kEvent   = "Event"
)

// encPrims maps wire appender function names to primitive kinds.
var encPrims = map[string]string{
	"AppendUvarint": kUvarint,
	"AppendVarint":  kVarint,
	"AppendTime":    kVarint,
	"AppendString":  kString,
	"AppendBytes":   kBytes,
	"AppendBool":    kBool,
	"AppendUint32":  kUint32,
	"AppendFloat64": kFloat64,
	"AppendValue":   kValue,
	"AppendEntity":  kEntity,
	"AppendEvent":   kEvent,
}

// decPrims maps wire.Reader method names to primitive kinds.
var decPrims = map[string]string{
	"Uvarint":    kUvarint,
	"Varint":     kVarint,
	"Time":       kVarint,
	"String":     kString,
	"Bytes":      kBytes,
	"Bool":       kBool,
	"Uint32":     kUint32,
	"Float64":    kFloat64,
	"Byte":       kByte,
	"Count":      kUvarint,
	"ReadValue":  kValue,
	"ReadEntity": kEntity,
	"ReadEvent":  kEvent,
}

// leafAppenders are the wire package's own primitive definitions — excluded
// from pairing (they ARE the primitives; only the compound value/entity/event
// codecs inside wire participate as pairs).
var leafAppenders = map[string]bool{
	"AppendUvarint": true, "AppendVarint": true, "AppendTime": true,
	"AppendString": true, "AppendBytes": true, "AppendBool": true,
	"AppendUint32": true, "AppendFloat64": true,
}

// codecPackages names the packages whose Append*/Read* functions count as
// nested codec calls when referenced cross-package. Same-package calls
// always count.
var codecPackages = map[string]bool{
	"agg": true, "window": true, "matcher": true, "invariant": true,
	"engine": true, "snapshot": true, "storage": true,
	"dist": true, "wire": true, "scheduler": true,
}

var encPrefixes = []string{"Append", "append", "Encode", "encode"}
var decPrefixes = []string{"Read", "read", "Decode", "decode", "Restore", "restore"}

// op is one node of a codec function's wire-operation tree.
type op struct {
	prim string // primitive kind; "" for structural nodes
	call string // pair key of a nested codec call; "" otherwise
	body []op   // loop body (loop node)
	alts [][]op // branch alternatives (branch node)
	pos  token.Pos
}

func (o op) isLoop() bool   { return o.body != nil }
func (o op) isBranch() bool { return o.alts != nil }

func (o op) String() string {
	switch {
	case o.prim != "":
		return o.prim
	case o.call != "":
		return "call(" + o.call + ")"
	case o.isLoop():
		return "loop{" + seqString(o.body) + "}"
	case o.isBranch():
		parts := make([]string, len(o.alts))
		for i, a := range o.alts {
			parts[i] = seqString(a)
		}
		return "branch{" + strings.Join(parts, " | ") + "}"
	}
	return "?"
}

func seqString(seq []op) string {
	parts := make([]string, len(seq))
	for i, o := range seq {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

// half is one candidate codec function.
type half struct {
	fn     *ast.FuncDecl
	recv   string // receiver base type name; "" for free functions
	suffix string // name with the Append/Read/... prefix stripped
	ops    []op
	direct int // count of direct primitive ops (not nested calls)
	calls  int
}

func run(pass *analysis.Pass) error {
	ex := &extractor{pass: pass}
	encs := map[string]*half{} // key: recv + "\x00" + lower(suffix)
	decs := map[string]*half{}
	// all function names present in the package (even non-candidates), for
	// the missing-half check: recv + "\x00" + name.
	names := map[string]bool{}

	inWire := pass.Pkg != nil && pass.Pkg.Name() == "wire"

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if pass.InTestFile(fn.Pos()) {
				continue
			}
			recv := recvName(pass, fn)
			names[recv+"\x00"+fn.Name.Name] = true
			if analysis.FuncHasDirective(fn, "codecpair-ignore") {
				continue
			}
			name := fn.Name.Name
			if inWire {
				// The wire package defines the primitives; skip the leaf
				// appenders and every Reader method in the primitive table.
				if leafAppenders[name] {
					continue
				}
				if recv == "Reader" {
					if _, isPrim := decPrims[name]; isPrim {
						continue
					}
				}
			}
			if suffix, ok := stripPrefix(name, encPrefixes); ok {
				h := ex.extract(fn, recv, suffix, encSide)
				if h.direct >= 1 || h.calls >= 2 {
					encs[pairKey(recv, suffix)] = h
				}
			} else if suffix, ok := stripPrefix(name, decPrefixes); ok {
				h := ex.extract(fn, recv, suffix, decSide)
				if h.direct >= 1 || h.calls >= 2 {
					decs[pairKey(recv, suffix)] = h
				}
			}
		}
	}

	for key, enc := range encs {
		dec, ok := decs[key]
		if !ok {
			// A decode function may exist by name but fall below the
			// candidate bar (manual encoding/binary decoding): pairing is
			// then out of scope. Only a codec with no other half at all is
			// a finding.
			if !halfExists(names, enc.recv, enc.suffix, decPrefixes) {
				pass.Reportf(enc.fn.Pos(),
					"codec %s writes wire data but package %s has no matching decode (looked for %s)",
					funcLabel(enc), pass.Pkg.Name(), wantedNames(enc.suffix, decPrefixes))
			}
			continue
		}
		compareHalves(pass, enc, dec)
	}
	for key, dec := range decs {
		if _, ok := encs[key]; ok {
			continue
		}
		if !halfExists(names, dec.recv, dec.suffix, encPrefixes) {
			pass.Reportf(dec.fn.Pos(),
				"codec %s reads wire data but package %s has no matching encode (looked for %s)",
				funcLabel(dec), pass.Pkg.Name(), wantedNames(dec.suffix, encPrefixes))
		}
	}
	return nil
}

func pairKey(recv, suffix string) string {
	// Methods on wire.Reader pair with free appenders (AppendValue ↔
	// (*Reader).ReadValue).
	if recv == "Reader" {
		recv = ""
	}
	return recv + "\x00" + strings.ToLower(suffix)
}

func stripPrefix(name string, prefixes []string) (string, bool) {
	for _, p := range prefixes {
		if rest, ok := strings.CutPrefix(name, p); ok {
			// "appendix" is not an Append codec: after a lowercase prefix
			// the suffix must start a new word (or be empty).
			if rest != "" && p == strings.ToLower(p) && rest[0] >= 'a' && rest[0] <= 'z' {
				continue
			}
			return rest, true
		}
	}
	return "", false
}

func halfExists(names map[string]bool, recv, suffix string, prefixes []string) bool {
	for _, p := range prefixes {
		if names[recv+"\x00"+p+suffix] {
			return true
		}
		// Reader methods pair with free functions and vice versa.
		if recv == "" && names["Reader\x00"+p+suffix] {
			return true
		}
		if recv == "Reader" && names["\x00"+p+suffix] {
			return true
		}
	}
	return false
}

func wantedNames(suffix string, prefixes []string) string {
	parts := make([]string, len(prefixes))
	for i, p := range prefixes {
		parts[i] = p + suffix
	}
	return strings.Join(parts, "/")
}

func funcLabel(h *half) string {
	if h.recv != "" {
		return h.recv + "." + h.fn.Name.Name
	}
	return h.fn.Name.Name
}

func recvName(pass *analysis.Pass, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

type extractor struct {
	pass *analysis.Pass
	side side
	// counters for the current extraction
	direct int
	calls  int
}

func (ex *extractor) extract(fn *ast.FuncDecl, recv, suffix string, s side) *half {
	ex.side = s
	ex.direct, ex.calls = 0, 0
	ops := normalize(ex.stmts(fn.Body.List))
	return &half{fn: fn, recv: recv, suffix: suffix, ops: ops, direct: ex.direct, calls: ex.calls}
}

// stmts extracts the op sequence of a statement list, restructuring
// early-exit guards (`if cond { ops...; return/continue }` followed by more
// statements) into explicit alternatives so encode and decode that spell the
// same optionality differently still align.
func (ex *extractor) stmts(list []ast.Stmt) []op {
	var seq []op
	for i, s := range list {
		switch st := s.(type) {
		case *ast.IfStmt:
			if st.Init != nil {
				seq = append(seq, ex.stmts([]ast.Stmt{st.Init})...)
			}
			seq = append(seq, ex.expr(st.Cond)...)
			body := ex.stmts(st.Body.List)
			var alts [][]op
			if st.Else == nil {
				if analysis.IsEarlyExitBranch(st.Body.List) {
					// Error guards (`if err != nil { return err }`) abort the
					// codec and impose no wire shape; success early exits
					// make everything after the guard conditional.
					if len(body) == 0 && ex.isFailurePath(st.Body.List) {
						continue
					}
					rest := ex.stmts(list[i+1:])
					return append(seq, branchOp(st.Pos(), body, rest))
				}
				alts = [][]op{body, nil}
			} else {
				alts = [][]op{body}
				alts = append(alts, ex.elseAlts(st.Else)...)
			}
			seq = append(seq, branchOp(st.Pos(), alts...))
		case *ast.SwitchStmt:
			if st.Init != nil {
				seq = append(seq, ex.stmts([]ast.Stmt{st.Init})...)
			}
			if st.Tag != nil {
				seq = append(seq, ex.expr(st.Tag)...)
			}
			seq = append(seq, ex.caseAlts(st.Pos(), st.Body.List)...)
		case *ast.TypeSwitchStmt:
			if st.Init != nil {
				seq = append(seq, ex.stmts([]ast.Stmt{st.Init})...)
			}
			seq = append(seq, ex.stmts([]ast.Stmt{st.Assign})...)
			seq = append(seq, ex.caseAlts(st.Pos(), st.Body.List)...)
		case *ast.ForStmt:
			if st.Init != nil {
				seq = append(seq, ex.stmts([]ast.Stmt{st.Init})...)
			}
			if st.Cond != nil {
				seq = append(seq, ex.expr(st.Cond)...)
			}
			body := ex.stmts(st.Body.List)
			if st.Post != nil {
				body = append(body, ex.stmts([]ast.Stmt{st.Post})...)
			}
			if len(body) > 0 {
				seq = append(seq, op{body: body, pos: st.Pos()})
			}
		case *ast.RangeStmt:
			seq = append(seq, ex.expr(st.X)...)
			body := ex.stmts(st.Body.List)
			if len(body) > 0 {
				seq = append(seq, op{body: body, pos: st.Pos()})
			}
		case *ast.BlockStmt:
			seq = append(seq, ex.stmts(st.List)...)
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				seq = append(seq, ex.expr(r)...)
			}
		case *ast.AssignStmt:
			// LHS index expressions can carry ops (into[r.String()] = ...)
			// and evaluate before the RHS.
			for _, l := range st.Lhs {
				seq = append(seq, ex.expr(l)...)
			}
			for _, r := range st.Rhs {
				seq = append(seq, ex.expr(r)...)
			}
		case *ast.ExprStmt:
			seq = append(seq, ex.expr(st.X)...)
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							seq = append(seq, ex.expr(v)...)
						}
					}
				}
			}
		case *ast.SendStmt:
			seq = append(seq, ex.expr(st.Value)...)
		case *ast.DeferStmt:
			seq = append(seq, ex.expr(st.Call)...)
		case *ast.GoStmt:
			seq = append(seq, ex.expr(st.Call)...)
		case *ast.LabeledStmt:
			seq = append(seq, ex.stmts([]ast.Stmt{st.Stmt})...)
		}
	}
	return seq
}

// elseAlts flattens an else branch (block or else-if chain) into
// alternatives.
func (ex *extractor) elseAlts(e ast.Stmt) [][]op {
	switch st := e.(type) {
	case *ast.BlockStmt:
		return [][]op{ex.stmts(st.List)}
	case *ast.IfStmt:
		// Fold the chained condition's ops into the alternative head.
		var head []op
		if st.Init != nil {
			head = append(head, ex.stmts([]ast.Stmt{st.Init})...)
		}
		head = append(head, ex.expr(st.Cond)...)
		alts := [][]op{append(head, ex.stmts(st.Body.List)...)}
		if st.Else != nil {
			alts = append(alts, ex.elseAlts(st.Else)...)
		} else {
			alts = append(alts, nil)
		}
		return alts
	}
	return nil
}

func (ex *extractor) caseAlts(pos token.Pos, clauses []ast.Stmt) []op {
	var alts [][]op
	hasDefault := false
	for _, c := range clauses {
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			alt := ex.stmts(cc.Body)
			// Error-path alternatives (default: return fmt.Errorf / r.Fail)
			// carry no wire data and exist on one side only; drop them so
			// they cannot block tag factoring or alternative matching.
			if len(alt) == 0 && ex.isFailurePath(cc.Body) {
				continue
			}
			alts = append(alts, alt)
		case *ast.CommClause:
			alts = append(alts, ex.stmts(cc.Body))
		}
	}
	if !hasDefault {
		alts = append(alts, nil) // implicit no-match alternative
	}
	if len(alts) == 0 {
		return nil
	}
	return []op{branchOp(pos, alts...)}
}

// isFailurePath reports whether a zero-op statement list is an error exit:
// it calls a Fail method or panic, or ends in a return whose results include
// a non-nil error-typed expression.
func (ex *extractor) isFailurePath(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	failing := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				switch f := call.Fun.(type) {
				case *ast.SelectorExpr:
					if f.Sel.Name == "Fail" {
						failing = true
					}
				case *ast.Ident:
					if f.Name == "panic" {
						failing = true
					}
				}
			}
			return true
		})
	}
	if failing {
		return true
	}
	ret, ok := stmts[len(stmts)-1].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	for _, r := range ret.Results {
		if id, ok := r.(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		if tv, ok := ex.pass.TypesInfo.Types[r]; ok && tv.Type != nil && isErrorType(tv.Type) {
			return true
		}
	}
	return false
}

func branchOp(pos token.Pos, alts ...[]op) op {
	return op{alts: alts, pos: pos}
}

// isErrorType reports whether t is error or a concrete type implementing it
// (sentinel structs like *VersionError count as error exits too).
func isErrorType(t types.Type) bool {
	if t.String() == "error" {
		return true
	}
	errIface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return errIface != nil && types.Implements(t, errIface)
}

// expr extracts ops from one expression in source order.
func (ex *extractor) expr(e ast.Expr) []op {
	var seq []op
	ex.walkExpr(e, &seq)
	return seq
}

func (ex *extractor) walkExpr(e ast.Expr, seq *[]op) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.CallExpr:
		if o, ok := ex.classifyCall(x); ok {
			// Collect ops nested in the arguments first (they execute
			// before the call), then the call's own op(s).
			for _, a := range x.Args {
				ex.walkExpr(a, seq)
			}
			*seq = append(*seq, o...)
			return
		}
		ex.walkExpr(x.Fun, seq)
		for _, a := range x.Args {
			ex.walkExpr(a, seq)
		}
	case *ast.CompositeLit:
		if ex.side == encSide && ex.isByteSlice(x) {
			for _, el := range x.Elts {
				ex.direct++
				*seq = append(*seq, op{prim: kByte, pos: el.Pos()})
			}
			return
		}
		for _, el := range x.Elts {
			ex.walkExpr(el, seq)
		}
	case *ast.KeyValueExpr:
		ex.walkExpr(x.Key, seq)
		ex.walkExpr(x.Value, seq)
	case *ast.ParenExpr:
		ex.walkExpr(x.X, seq)
	case *ast.SelectorExpr:
		ex.walkExpr(x.X, seq)
	case *ast.StarExpr:
		ex.walkExpr(x.X, seq)
	case *ast.UnaryExpr:
		ex.walkExpr(x.X, seq)
	case *ast.BinaryExpr:
		ex.walkExpr(x.X, seq)
		ex.walkExpr(x.Y, seq)
	case *ast.IndexExpr:
		ex.walkExpr(x.X, seq)
		ex.walkExpr(x.Index, seq)
	case *ast.SliceExpr:
		ex.walkExpr(x.X, seq)
		ex.walkExpr(x.Low, seq)
		ex.walkExpr(x.High, seq)
		ex.walkExpr(x.Max, seq)
	case *ast.TypeAssertExpr:
		ex.walkExpr(x.X, seq)
	case *ast.FuncLit:
		// Closures execute later (or not at all); their bodies are not part
		// of this codec's linear wire sequence.
	}
}

func (ex *extractor) isByteSlice(lit *ast.CompositeLit) bool {
	tv, ok := ex.pass.TypesInfo.Types[lit]
	if !ok {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}

// classifyCall maps a call to its wire op(s), if it is one for the current
// side.
func (ex *extractor) classifyCall(call *ast.CallExpr) ([]op, bool) {
	// Raw byte appends: append(b, tagByte) on the encode side.
	if ex.side == encSide {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && call.Ellipsis == token.NoPos && len(call.Args) >= 2 {
			if ex.exprIsByteSlice(call.Args[0]) {
				var ops []op
				allBytes := true
				for _, a := range call.Args[1:] {
					if !ex.exprIsByteLike(a) {
						allBytes = false
						break
					}
					ops = append(ops, op{prim: kByte, pos: a.Pos()})
				}
				if allBytes {
					// Nested ops inside the byte expressions still count
					// (e.g. a kind byte computed from a decoded value —
					// encode side, so none in practice).
					ex.direct += len(ops)
					return ops, true
				}
			}
		}
	}

	obj := calleeFunc(ex.pass, call)
	if obj == nil {
		return nil, false
	}
	name := obj.Name()
	pkg := obj.Pkg()

	if ex.side == encSide {
		if pkg != nil && pkg.Name() == "wire" {
			if prim, ok := encPrims[name]; ok {
				ex.direct++
				return []op{{prim: prim, pos: call.Pos()}}, true
			}
		}
	} else {
		if recvTypeName(obj) == "Reader" && pkg != nil && pkg.Name() == "wire" {
			if prim, ok := decPrims[name]; ok {
				ex.direct++
				return []op{{prim: prim, pos: call.Pos()}}, true
			}
		}
	}

	// Nested codec call: a module codec function matching the side's naming
	// convention whose signature touches []byte or *wire.Reader.
	prefixes := encPrefixes
	if ex.side == decSide {
		prefixes = decPrefixes
	}
	suffix, ok := stripPrefix(name, prefixes)
	if !ok {
		return nil, false
	}
	if pkg == nil {
		return nil, false
	}
	samePkg := ex.pass.Pkg != nil && pkg.Path() == ex.pass.Pkg.Path()
	if !samePkg && !codecPackages[pkg.Name()] {
		return nil, false
	}
	if !signatureTouchesWire(obj) {
		return nil, false
	}
	recv := recvTypeName(obj)
	if recv == "Reader" && pkg.Name() == "wire" {
		recv = ""
	}
	key := pkg.Name() + "." + recv + "." + strings.ToLower(suffix)
	ex.calls++
	return []op{{call: key, pos: call.Pos()}}, true
}

func (ex *extractor) exprIsByteSlice(e ast.Expr) bool {
	tv, ok := ex.pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}

func (ex *extractor) exprIsByteLike(e ast.Expr) bool {
	tv, ok := ex.pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch basic.Kind() {
	case types.Byte, types.Int8, types.UntypedInt, types.UntypedRune:
		return true
	}
	return false
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func signatureTouchesWire(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	check := func(t types.Type) bool {
		if p, ok := t.(*types.Pointer); ok {
			if n, ok := p.Elem().(*types.Named); ok &&
				n.Obj().Name() == "Reader" && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "wire" {
				return true
			}
		}
		if sl, ok := t.Underlying().(*types.Slice); ok {
			if b, ok := sl.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
				return true
			}
		}
		return false
	}
	if sig.Recv() != nil && check(sig.Recv().Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if check(sig.Params().At(i).Type()) {
			return true
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if check(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Normalization
// ---------------------------------------------------------------------------

// normalize prunes structure that carries no wire ops and collapses
// branches whose alternatives are identical.
func normalize(seq []op) []op {
	var out []op
	for _, o := range seq {
		switch {
		case o.isLoop():
			body := normalize(o.body)
			if len(body) == 0 {
				continue
			}
			out = append(out, op{body: body, pos: o.pos})
		case o.isBranch():
			var alts [][]op
			for _, a := range o.alts {
				alts = append(alts, normalize(a))
			}
			nonEmpty := 0
			for _, a := range alts {
				if len(a) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty == 0 {
				continue
			}
			// All alternatives identical (and none empty): the branch is
			// wire-transparent (e.g. `if hasWM { AppendTime } else
			// { AppendVarint(0) }` — both are a Varint).
			if nonEmpty == len(alts) && allAltsEqual(alts) {
				out = append(out, alts[0]...)
				continue
			}
			out = append(out, op{alts: alts, pos: o.pos})
		default:
			out = append(out, o)
		}
	}
	return out
}

func allAltsEqual(alts [][]op) bool {
	for _, a := range alts[1:] {
		if !seqEqual(alts[0], a) {
			return false
		}
	}
	return true
}

func seqEqual(a, b []op) bool {
	c := comparer{}
	return c.compareSeq(a, b)
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

type mismatch struct {
	encPos, decPos token.Pos
	msg            string
}

type comparer struct {
	firstErr *mismatch
}

func (c *comparer) fail(encOps, decOps []op, i, j int, format string, args ...any) bool {
	if c.firstErr == nil {
		m := &mismatch{msg: fmt.Sprintf(format, args...)}
		if i < len(encOps) {
			m.encPos = encOps[i].pos
		} else if len(encOps) > 0 {
			m.encPos = encOps[len(encOps)-1].pos
		}
		if j < len(decOps) {
			m.decPos = decOps[j].pos
		} else if len(decOps) > 0 {
			m.decPos = decOps[len(decOps)-1].pos
		}
		c.firstErr = m
	}
	return false
}

// compareSeq reports whether the encode sequence enc and decode sequence dec
// describe the same wire layout.
func (c *comparer) compareSeq(enc, dec []op) bool {
	i, j := 0, 0
	for i < len(enc) && j < len(dec) {
		eo, do := enc[i], dec[j]
		switch {
		case eo.prim != "" && do.prim != "":
			if eo.prim != do.prim {
				return c.fail(enc, dec, i, j, "encode writes %s where decode reads %s", eo.prim, do.prim)
			}
		case eo.call != "" && do.call != "":
			if eo.call != do.call {
				return c.fail(enc, dec, i, j, "encode calls %s where decode calls %s", eo.call, do.call)
			}
		case eo.isLoop() && do.isLoop():
			if !c.compareSeq(eo.body, do.body) {
				return false
			}
		case eo.isBranch() && do.isBranch():
			if !c.compareBranch(eo, do) {
				return c.fail(enc, dec, i, j, "conditional encode/decode alternatives do not match: encode %s, decode %s", eo, do)
			}
		case eo.isBranch():
			// A tag written inside every encode alternative matches a tag
			// read once before the decode branch: factor it out.
			if do.prim != "" || do.call != "" {
				if stripped, ok := factorLead(eo, do); ok {
					enc = splice(enc, i, []op{stripped})
					j++
					continue
				}
			}
			// An optional branch (one non-empty alternative plus an empty
			// skip path) whose content can legally produce zero bytes —
			// loops, nested optionals — matches the other side's
			// unconditional form: a skipped `if n == 0 { return }` guard is
			// equivalent to a loop running zero times.
			if alt, ok := optionalAlt(eo); ok && allSkippable(alt) {
				enc = splice(enc, i, alt)
				continue
			}
			return c.fail(enc, dec, i, j, "encode has conditional %s where decode has %s", eo, do)
		case do.isBranch():
			if eo.prim != "" || eo.call != "" {
				if stripped, ok := factorLead(do, eo); ok {
					dec = splice(dec, j, []op{stripped})
					i++
					continue
				}
			}
			if alt, ok := optionalAlt(do); ok && allSkippable(alt) {
				dec = splice(dec, j, alt)
				continue
			}
			return c.fail(enc, dec, i, j, "decode has conditional %s where encode has %s", do, eo)
		default:
			return c.fail(enc, dec, i, j, "encode has %s where decode has %s", eo, do)
		}
		i++
		j++
	}
	for ; i < len(enc); i++ {
		if !opOptional(enc[i]) {
			return c.fail(enc, dec, i, len(dec), "encode writes %s that decode never reads", enc[i])
		}
	}
	for ; j < len(dec); j++ {
		if !opOptional(dec[j]) {
			return c.fail(enc, dec, len(enc), j, "decode reads %s that encode never writes", dec[j])
		}
	}
	return true
}

// opOptional reports whether a trailing op can legally be unmatched: a
// branch with an empty alternative may contribute nothing to the wire.
// Conservatively, nothing else is optional.
func opOptional(o op) bool {
	if !o.isBranch() {
		return false
	}
	for _, a := range o.alts {
		if len(a) != 0 {
			return false
		}
	}
	return true
}

// splice replaces seq[i] with repl, copying so callers' slices are unshared.
func splice(seq []op, i int, repl []op) []op {
	out := make([]op, 0, len(seq)-1+len(repl))
	out = append(out, seq[:i]...)
	out = append(out, repl...)
	out = append(out, seq[i+1:]...)
	return out
}

// optionalAlt returns the single non-empty alternative of a branch that also
// has at least one empty alternative — the "maybe skip this" shape produced
// by success early exits like `if n == 0 { return nil }`.
func optionalAlt(o op) ([]op, bool) {
	var alt []op
	hasEmpty := false
	for _, a := range o.alts {
		if len(a) == 0 {
			hasEmpty = true
			continue
		}
		if alt != nil {
			return nil, false
		}
		alt = a
	}
	if alt == nil || !hasEmpty {
		return nil, false
	}
	return alt, true
}

// allSkippable reports whether every op in seq can legally contribute zero
// bytes to the wire: loops (zero iterations) and optional branches of
// skippable content. Prims and calls always produce bytes.
func allSkippable(seq []op) bool {
	for _, o := range seq {
		switch {
		case o.isLoop():
			// A loop can run zero times regardless of its body.
		case o.isBranch():
			ok := true
			for _, a := range o.alts {
				if !allSkippable(a) {
					ok = false
					break
				}
			}
			if !ok {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// factorLead strips lead (a prim or call op) from the front of every
// non-empty alternative of branch b, returning the stripped branch. It
// fails if any non-empty alternative starts differently or any alternative
// is empty (an empty alternative cannot have written the lead).
func factorLead(b op, lead op) (op, bool) {
	var alts [][]op
	for _, a := range b.alts {
		if len(a) == 0 {
			return op{}, false
		}
		head := a[0]
		same := (head.prim != "" && head.prim == lead.prim) ||
			(head.call != "" && head.call == lead.call)
		if !same {
			return op{}, false
		}
		alts = append(alts, a[1:])
	}
	return op{alts: alts, pos: b.pos}, true
}

// compareBranch matches two branch nodes: every non-empty alternative on
// one side must structurally equal a distinct non-empty alternative on the
// other; empty alternatives (optionality) are tolerated on either side.
func (c *comparer) compareBranch(eo, do op) bool {
	encAlts := nonEmptyAlts(eo.alts)
	decAlts := nonEmptyAlts(do.alts)
	if len(encAlts) != len(decAlts) {
		return false
	}
	used := make([]bool, len(decAlts))
	for _, ea := range encAlts {
		found := false
		for k, da := range decAlts {
			if used[k] {
				continue
			}
			sub := comparer{}
			if sub.compareSeq(ea, da) {
				used[k] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func nonEmptyAlts(alts [][]op) [][]op {
	var out [][]op
	for _, a := range alts {
		if len(a) > 0 {
			out = append(out, a)
		}
	}
	return out
}

func compareHalves(pass *analysis.Pass, enc, dec *half) {
	c := comparer{}
	if c.compareSeq(enc.ops, dec.ops) {
		return
	}
	m := c.firstErr
	pos := m.encPos
	if pos == token.NoPos {
		pos = enc.fn.Pos()
	}
	decWhere := ""
	if m.decPos != token.NoPos {
		decWhere = fmt.Sprintf(" (decode side: %s)", pass.Fset.Position(m.decPos))
	}
	pass.Reportf(pos, "codec pair %s/%s out of sync: %s%s",
		funcLabel(enc), funcLabel(dec), m.msg, decWhere)
}
