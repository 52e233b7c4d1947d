// Package analysis is a self-contained static-analysis framework for the
// SAQL engine's hand-maintained invariants — the conventions the headline
// guarantees rest on (recovery equivalence, sharded==serial, ≤0.1 allocs/event
// ingest) but that, before this package, only runtime hammers enforced.
//
// It deliberately mirrors the golang.org/x/tools/go/analysis surface
// (Analyzer / Pass / Diagnostic) so the analyzers read like standard vet
// passes and could be ported onto x/tools verbatim, but it is built entirely
// on the standard library (go/ast, go/types, go/importer) so the module
// stays dependency-free: package loading resolves imports through
// `go list -export` (see the load subpackage) and cmd/saql-lint speaks the
// `go vet -vettool` unitchecker protocol itself.
//
// The analyzers live in subpackages:
//
//   - codecpair:    every wire encode function's primitive sequence must
//     mirror its decode counterpart, and every codec must have both halves;
//   - hotpath:      functions annotated //saql:hotpath must not contain the
//     allocation shapes the ingest alloc gate budgets against;
//   - ctlorder:     engine state mutates only through the control-queue
//     envelope path, and lock-bearing values are never copied;
//   - determinism:  no wall-clock or unseeded randomness inside the
//     replay/checkpoint/eval cone, no map-iteration-order-dependent encoding.
//
// # Source annotations
//
// Analyzers honor magic comments (one per line, anywhere in the comment):
//
//	//saql:hotpath            function must pass the hotpath analyzer
//	//saql:ctlpath            function is part of the control-queue path
//	//saql:wallclock          genuinely wall-clock site (lease heartbeats,
//	                          informational timestamps); determinism skips it
//	//saql:coldpath           line is a one-time/amortized slow path inside a
//	                          hot function; hotpath skips it
//	//saql:codecpair-ignore   codec function excluded from pairing (give the
//	                          reason after the directive)
//
// Function-level directives go in the function's doc comment; line-level
// directives go on the flagged line or the line directly above it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name is the analyzer's identifier, as shown in diagnostics.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report.
	Run func(*Pass) error
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's parsed and type-checked form to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver installs it.
	Report func(Diagnostic)

	// directives caches per-file line -> directive words, built lazily.
	directives map[*ast.File]map[int][]string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// DirectivePrefix introduces every SAQL analyzer annotation.
const DirectivePrefix = "//saql:"

// parseDirectives extracts the directive words ("hotpath", "wallclock", ...)
// from one comment group. A directive is a comment line whose text starts
// exactly with //saql: — anything after the word is free-form rationale.
func parseDirectives(cg *ast.CommentGroup) []string {
	if cg == nil {
		return nil
	}
	var out []string
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, DirectivePrefix) {
			continue
		}
		word := strings.TrimPrefix(text, DirectivePrefix)
		if i := strings.IndexAny(word, " \t"); i >= 0 {
			word = word[:i]
		}
		if word != "" {
			out = append(out, word)
		}
	}
	return out
}

// FuncHasDirective reports whether fn's doc comment carries the directive
// word (e.g. "hotpath").
func FuncHasDirective(fn *ast.FuncDecl, word string) bool {
	for _, d := range parseDirectives(fn.Doc) {
		if d == word {
			return true
		}
	}
	return false
}

// fileDirectives indexes every directive comment in file by line number.
func (p *Pass) fileDirectives(file *ast.File) map[int][]string {
	if p.directives == nil {
		p.directives = map[*ast.File]map[int][]string{}
	}
	if m, ok := p.directives[file]; ok {
		return m
	}
	m := map[int][]string{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, DirectivePrefix) {
				continue
			}
			word := strings.TrimPrefix(text, DirectivePrefix)
			if i := strings.IndexAny(word, " \t"); i >= 0 {
				word = word[:i]
			}
			if word == "" {
				continue
			}
			line := p.Fset.Position(c.Pos()).Line
			m[line] = append(m[line], word)
		}
	}
	p.directives[file] = m
	return m
}

// FileFor returns the *ast.File containing pos, or nil.
func (p *Pass) FileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// Suppressed reports whether a diagnostic at pos is silenced by the given
// line-level directive: the directive sits on the same line (trailing
// comment) or on the line directly above (own-line comment).
func (p *Pass) Suppressed(pos token.Pos, word string) bool {
	file := p.FileFor(pos)
	if file == nil {
		return false
	}
	dirs := p.fileDirectives(file)
	line := p.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, d := range dirs[l] {
			if d == word {
				return true
			}
		}
	}
	return false
}

// InTestFile reports whether pos falls in a _test.go file. The analyzers
// check production invariants; test code is exempt wholesale.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// IsEarlyExitBranch reports whether the statement list forms an early-exit
// (cold) branch: its last statement is a return or a panic call. Error
// branches in codecs and guards in hot functions end this way, and both the
// hotpath and codecpair analyzers treat them as off the measured path.
func IsEarlyExitBranch(stmts []ast.Stmt) bool {
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
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE || last.Tok == token.BREAK || last.Tok == token.GOTO
	}
	return false
}
