package event

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestEventLayout fences the hot-first layout of Event and Entity: what
// every stage reads of an event shares its first cache line, an entity's
// scalars come before its strings, neither type grows back into a larger
// allocation size class, and no literal anywhere in the repository relies
// on field order.
func TestEventLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is fenced on 64-bit platforms")
	}
	var ev Event
	for _, f := range []struct {
		name string
		off  uintptr
		size uintptr
	}{
		{"Time", unsafe.Offsetof(ev.Time), unsafe.Sizeof(ev.Time)},
		{"Op", unsafe.Offsetof(ev.Op), unsafe.Sizeof(ev.Op)},
		{"AgentSym", unsafe.Offsetof(ev.AgentSym), unsafe.Sizeof(ev.AgentSym)},
		{"Amount", unsafe.Offsetof(ev.Amount), unsafe.Sizeof(ev.Amount)},
	} {
		if f.off+f.size > 64 {
			t.Errorf("Event.%s lies at bytes [%d, %d), outside the first 64", f.name, f.off, f.off+f.size)
		}
	}
	if s := unsafe.Sizeof(Event{}); s > 368 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want ≤ 368", s)
	}
	if s := unsafe.Sizeof(Entity{}); s > 152 {
		t.Errorf("unsafe.Sizeof(Entity{}) = %d, want ≤ 152", s)
	}

	var e Entity
	scalars := []uintptr{
		unsafe.Offsetof(e.Type), unsafe.Offsetof(e.PID),
		unsafe.Offsetof(e.ExeSym), unsafe.Offsetof(e.UserSym), unsafe.Offsetof(e.SrcIPSym),
		unsafe.Offsetof(e.DstIPSym), unsafe.Offsetof(e.ProtoSym),
		unsafe.Offsetof(e.SrcPort), unsafe.Offsetof(e.DstPort),
	}
	strs := []uintptr{
		unsafe.Offsetof(e.ExeName), unsafe.Offsetof(e.DstIP), unsafe.Offsetof(e.Path),
		unsafe.Offsetof(e.User), unsafe.Offsetof(e.CmdLine), unsafe.Offsetof(e.SrcIP),
		unsafe.Offsetof(e.Protocol),
	}
	if last, first := slices.Max(scalars), slices.Min(strs); last > first {
		t.Errorf("an Entity scalar field lies at byte %d, after its first string field at byte %d", last, first)
	}

	for _, bad := range unkeyedLiterals(t, filepath.Join("..", "..")) {
		t.Errorf("%s: unkeyed literal; key every field, since a reorder would silently swap fields of one type", bad)
	}
}

// unkeyedLiterals walks every .go file under root (tests and the bench
// module included, testdata and build output not) and returns the position
// of each Event or Entity composite literal with a positional element,
// elided-type elements of slices, arrays and maps of them included.
func unkeyedLiterals(t *testing.T, root string) []string {
	t.Helper()
	if b, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(b), "module saql\n") {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	var bad []string
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || filepath.ToSlash(path) == filepath.ToSlash(filepath.Join(root, "bench", "out"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		// The names that denote Event and Entity in this file: the event
		// package's own, the root package's aliases, and any import of
		// either package under its local name.
		local := f.Name.Name == "event" || f.Name.Name == "saql"
		pkgs := map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != "saql/internal/event" && p != "saql" {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgs[name] = true
		}
		isTarget := func(typ ast.Expr) bool {
			switch x := typ.(type) {
			case *ast.Ident:
				return local && (x.Name == "Event" || x.Name == "Entity")
			case *ast.SelectorExpr:
				id, ok := x.X.(*ast.Ident)
				return ok && pkgs[id.Name] && (x.Sel.Name == "Event" || x.Sel.Name == "Entity")
			}
			return false
		}
		var check func(lit *ast.CompositeLit, typ ast.Expr)
		check = func(lit *ast.CompositeLit, typ ast.Expr) {
			if isTarget(typ) {
				for _, el := range lit.Elts {
					if _, ok := el.(*ast.KeyValueExpr); !ok {
						bad = append(bad, fset.Position(el.Pos()).String())
						return
					}
				}
				return
			}
			var key, elem ast.Expr
			switch x := typ.(type) {
			case *ast.ArrayType:
				elem = x.Elt
			case *ast.MapType:
				key, elem = x.Key, x.Value
			default:
				return
			}
			elided := func(e, typ ast.Expr) {
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if sub, ok := e.(*ast.CompositeLit); ok && sub.Type == nil {
					check(sub, typ)
				}
			}
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key != nil {
						elided(kv.Key, key)
					}
					el = kv.Value
				}
				elided(el, elem)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok && lit.Type != nil {
				check(lit, lit.Type)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked only %d .go files under %s", files, root)
	}
	return bad
}
