// Package determinism guards the replay/checkpoint/eval cone — the code
// whose outputs must be byte- and alert-identical across a live run, a
// restored run, and a re-sharded run (the PR-5 recovery-equivalence and
// sharded==serial conformance guarantees). Inside that cone it forbids:
//
//   - wall-clock reads: time.Now, time.Since, time.Until, and timer/ticker
//     construction (time.After, time.Tick, time.NewTimer, time.NewTicker,
//     time.AfterFunc) — both calls and bare references (a bare time.Now
//     stored as an injectable clock default still leaks wall time into
//     replay);
//   - global math/rand and math/rand/v2 functions (methods on an explicitly
//     seeded *rand.Rand are fine — the seed is state, the global source is
//     not);
//   - wire encoding inside map iteration: ranging over a map while
//     appending wire primitives bakes Go's randomized iteration order into
//     the encoded bytes, the exact drift class the PR-5 conformance suite
//     chases. Collect and sort the keys first.
//
// Genuinely wall-clock sites (lease heartbeats, source pacing tickers,
// informational snapshot timestamps) opt out with //saql:wallclock on the
// line, the line above, or the enclosing function's doc comment — the
// annotation is the audit trail that a human decided wall time is safe
// there.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"saql/internal/analysis"
)

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global randomness and map-order-dependent encoding inside the replay/checkpoint/eval cone",
	Run:  run,
}

// conePackages are the import-path suffixes inside the deterministic cone.
// The collector (seeded synthetic load), the replayer (wall-clock pacing by
// design), leakcheck and the cmd/ front-ends are outside it.
var conePackages = []string{
	"saql",
	"saql/internal/agg",
	"saql/internal/codec",
	"saql/internal/dist",
	"saql/internal/engine",
	"saql/internal/invariant",
	"saql/internal/matcher",
	"saql/internal/runtime",
	"saql/internal/scheduler",
	"saql/internal/snapshot",
	"saql/internal/source",
	"saql/internal/storage",
	"saql/internal/window",
	"saql/internal/wire",
}

// InCone reports whether a package path is inside the deterministic cone.
func InCone(path string) bool {
	for _, p := range conePackages {
		if path == p {
			return true
		}
	}
	return false
}

// wallClockFuncs are the time package functions that read or schedule
// against the wall clock. time.Unix/time.Date construct from explicit
// inputs and are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || !InCone(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, isFn := decl.(*ast.FuncDecl)
			if isFn && fn.Body == nil {
				continue
			}
			if pass.InTestFile(decl.Pos()) {
				continue
			}
			exempt := isFn && analysis.FuncHasDirective(fn, "wallclock")
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					checkSelector(pass, x, exempt)
				case *ast.RangeStmt:
					checkMapRangeEncoding(pass, x)
				}
				return true
			})
		}
	}
	return nil
}

// checkSelector flags wall-clock and global-rand references, whether called
// or merely mentioned (stored in a struct field, passed as a default).
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr, exempt bool) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are deterministic state
	}
	var msg string
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			msg = "wall-clock time." + fn.Name() + " inside the deterministic replay/checkpoint/eval cone"
		}
	case "math/rand", "math/rand/v2":
		msg = "global " + fn.Pkg().Path() + "." + fn.Name() + " inside the deterministic cone (use an explicitly seeded *rand.Rand)"
	}
	if msg == "" {
		return
	}
	if exempt || pass.Suppressed(sel.Pos(), "wallclock") {
		return
	}
	pass.Reportf(sel.Pos(), "%s (annotate //saql:wallclock if wall time is genuinely intended here)", msg)
}

// checkMapRangeEncoding flags wire appends performed while ranging over a
// map: the encoded byte order then depends on Go's randomized map
// iteration order.
func checkMapRangeEncoding(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch f := call.Fun.(type) {
		case *ast.Ident:
			id = f
		case *ast.SelectorExpr:
			id = f.Sel
		default:
			return true
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "wire" {
			return true
		}
		if strings.HasPrefix(fn.Name(), "Append") {
			if !pass.Suppressed(call.Pos(), "wallclock") {
				pass.Reportf(call.Pos(),
					"wire.%s inside map iteration encodes in nondeterministic order; collect and sort the keys first",
					fn.Name())
			}
		}
		return true
	})
}
