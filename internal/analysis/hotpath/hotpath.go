// Package hotpath statically backs the ingest allocation budget
// (TestIngestAllocsPerEventGate: ≤0.1 allocs/event;
// TestIngestBytesPerEventGate: ≤16 B/event): functions annotated
// //saql:hotpath — the one event path of every engine (the runtime
// partitioner's routeEvent with its emit helper, flushShard/flushAll/
// processBatch and batch pool, the scheduler's one evaluator — EvaluateBatch
// and serial Process's evaluateBatchLocked with its per-group sweep and the
// agentid dispatch (agentKey, the batch's bucket pass, the agentid fold
// foldAgent it shares with the prefilter's Admit) — the resolve step
// resolveLocked and its ops (SetHits.FoldOp/HitsOp), HitSet.AssertLive and
// the one fold: Apply/applySet, serial Process's foldLocked,
// AdvanceAll/advanceLocked), engine.MatchBatch/HitKey and the key class memo, the
// compiled predicate and expression programs (pcode's Match and Run, with the
// frame's slot accessors; the close-time runners engine.alertHolds/evalReturn
// and window.History.Field — backing TestWindowCloseAllocsGate), the
// codec intern table (string- and bytes-keyed
// lookups, the per-line counter publish), the ndjson scanner's per-line
// functions (scan/check/fill, the object/member walk, the value readers and
// the RFC 3339 fast parser — backing TestNDJSONDecodeAllocsGate: ≤2
// allocs/line), the wire.Reader decode loop, window assignment, the history
// ring, the stateful fold (the slice log's Add/Touch/Advance, its
// seal's bucketing pass, its one evaluation of the set's argument programs
// per hit and each member's column fold foldColumns/foldStretch/addColumn,
// every aggregator's AddAll, and the evaluator's ResidualHits;
// window.Directory.Resolve and window.Manager's
// id-indexed GroupFor/Touch/Advance and open-window lookup — backing
// TestStatefulFoldAllocsGate: 0 allocs per hit folded into an existing
// group), DBSCAN's line sort and labelling passes
// (sortLine/dbscanLine/dbscanScan) — are
// rejected if they contain the allocation shapes that have historically
// crept into those paths:
//
//   - &T{...} composite literals (heap-escaping per-event allocation);
//   - map or channel allocation (make(map...), make(chan...), map literals);
//   - new(T);
//   - fmt.* calls (allocate for formatting and box their arguments);
//   - non-constant string concatenation;
//   - interface boxing of concrete non-pointer-shaped values (passing an
//     int or struct to an interface parameter allocates; passing a pointer,
//     map, chan or func does not).
//
// Value composite literals and slice make() are deliberately allowed: the
// hot paths amortize per-batch slice growth by design and value literals
// stay on the stack.
//
// Early-exit guards (`if err { ...; return }`) are off the measured path
// and skipped, matching how the runtime gate only measures the steady
// state. A genuinely cold line inside a hot function (a one-time lazy init)
// is suppressed with //saql:coldpath on the line or the line above.
// Function literals are not descended into: a closure's body runs on its
// own schedule and the literal itself is reported by the composite rules
// only if assigned per-event.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"saql/internal/analysis"
)

// Analyzer is the hotpath pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocation shapes in //saql:hotpath functions backing the ≤0.1 allocs/event ingest gate",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if pass.InTestFile(fn.Pos()) {
				continue
			}
			if !analysis.FuncHasDirective(fn, "hotpath") {
				continue
			}
			w := &walker{pass: pass, fn: fn.Name.Name}
			w.stmts(fn.Body.List)
		}
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
	fn   string
}

func (w *walker) report(pos token.Pos, format string, args ...any) {
	if w.pass.Suppressed(pos, "coldpath") {
		return
	}
	args = append(args, w.fn)
	w.pass.Reportf(pos, format+" in //saql:hotpath function %s", args...)
}

// stmts walks a hot statement list, skipping early-exit guard bodies
// (`if cond { ...; return }` / panic) — those are the cold error branches
// the runtime gate never measures.
func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		w.expr(st.Cond)
		if !coldBody(st.Body.List) {
			w.stmts(st.Body.List)
		}
		if st.Else != nil {
			w.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		w.expr(st.Cond)
		if st.Post != nil {
			w.stmt(st.Post)
		}
		w.stmts(st.Body.List)
	case *ast.RangeStmt:
		w.expr(st.X)
		w.stmts(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		w.expr(st.Tag)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		w.stmt(st.Assign)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm)
				}
				w.stmts(cc.Body)
			}
		}
	case *ast.BlockStmt:
		w.stmts(st.List)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	case *ast.AssignStmt:
		if st.Tok == token.ADD_ASSIGN && len(st.Lhs) == 1 && w.isString(st.Lhs[0]) {
			w.report(st.TokPos, "string concatenation")
		}
		for _, r := range st.Rhs {
			w.expr(r)
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.expr(r)
		}
	case *ast.ExprStmt:
		w.expr(st.X)
	case *ast.SendStmt:
		w.expr(st.Chan)
		w.expr(st.Value)
	case *ast.IncDecStmt:
		w.expr(st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.DeferStmt:
		w.expr(st.Call)
	case *ast.GoStmt:
		w.expr(st.Call)
	}
}

// coldBody reports whether a guard body is an early exit (last statement is
// a return or panic), placing it off the hot path.
func coldBody(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					w.report(x.Pos(), "heap-escaping composite literal &%s{...}", typeLabel(w.pass, x.X))
					return false
				}
			}
		case *ast.CompositeLit:
			if tv, ok := w.pass.TypesInfo.Types[x]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					w.report(x.Pos(), "map literal allocation")
					return false
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && w.isString(x) {
				if tv, ok := w.pass.TypesInfo.Types[x]; !ok || tv.Value == nil {
					w.report(x.Pos(), "string concatenation")
				}
			}
		case *ast.CallExpr:
			w.call(x)
		}
		return true
	})
}

func (w *walker) call(call *ast.CallExpr) {
	tv, ok := w.pass.TypesInfo.Types[call.Fun]
	if ok && tv.IsType() {
		// Conversion. Converting to an interface type boxes the operand.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := w.typeOf(call.Args[0]); at != nil && !types.IsInterface(at) && !pointerShaped(at) {
				w.report(call.Pos(), "interface conversion boxes %s", at)
			}
		}
		return
	}

	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := w.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if len(call.Args) > 0 {
					if t := w.typeOf(call.Args[0]); t != nil {
						switch t.Underlying().(type) {
						case *types.Map:
							w.report(call.Pos(), "map allocation (make)")
						case *types.Chan:
							w.report(call.Pos(), "channel allocation (make)")
						}
					}
				}
			case "new":
				w.report(call.Pos(), "new(T) allocation")
			}
			return
		}
	}

	if fn := calleeFunc(w.pass, call); fn != nil && fn.Pkg() != nil {
		if fn.Pkg().Path() == "fmt" {
			w.report(call.Pos(), "fmt.%s call", fn.Name())
			return
		}
	}

	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	w.boxedArgs(call, sig)
}

// boxedArgs flags concrete non-pointer-shaped arguments passed to interface
// parameters — each such pass allocates (runtime.convT*).
func (w *walker) boxedArgs(call *ast.CallExpr, sig *types.Signature) {
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing
			}
			sl, ok := sig.Params().At(np - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = sl.Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := w.typeOf(arg)
		if at == nil || types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		w.report(arg.Pos(), "interface boxing of %s", at)
	}
}

func (w *walker) typeOf(e ast.Expr) types.Type {
	tv, ok := w.pass.TypesInfo.Types[e]
	if !ok {
		return nil
	}
	if tv.Type == nil {
		return nil
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return nil
	}
	return tv.Type
}

func (w *walker) isString(e ast.Expr) bool {
	tv, ok := w.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pointerShaped reports whether boxing a value of type t into an interface
// is allocation-free: pointers, channels, maps, and funcs fit the interface
// word directly.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
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

func typeLabel(pass *analysis.Pass, e ast.Expr) string {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Type != nil {
		return tv.Type.String()
	}
	return "T"
}
