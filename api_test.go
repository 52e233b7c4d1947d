package saql

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExportedAPI pins the package's public surface: every exported
// top-level name of the non-test files, and every exported method of an
// exported type, against testdata/api.golden. A new export shows up in
// review as a diff to that file; SAQL_UPDATE_GOLDEN=1 rewrites it.
func TestExportedAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var api []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			api = append(api, exportedNames(decl)...)
		}
	}
	slices.Sort(api)
	got := strings.Join(api, "\n") + "\n"

	golden := filepath.Join("testdata", "api.golden")
	if os.Getenv("SAQL_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gotSet, wantSet := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for _, n := range gotSet {
			if !slices.Contains(wantSet, n) {
				t.Errorf("new export: %s", n)
			}
		}
		for _, n := range wantSet {
			if !slices.Contains(gotSet, n) {
				t.Errorf("export gone: %s", n)
			}
		}
		t.Fatalf("the exported API differs from %s (SAQL_UPDATE_GOLDEN=1 rewrites it)", golden)
	}
}

// exportedNames lists what one declaration exports: "func F", "type T",
// "const C", "var V", or "method T.M" for an exported method of an exported
// type.
func exportedNames(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			break
		}
		if d.Recv == nil {
			out = append(out, "func "+d.Name.Name)
			break
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
			out = append(out, "method "+id.Name+"."+d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					out = append(out, "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, d.Tok.String()+" "+n.Name)
					}
				}
			}
		}
	}
	return out
}
