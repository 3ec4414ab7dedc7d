package offloadnn_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/surface.txt from the source tree")

const surfaceGolden = "testdata/surface.txt"

// TestSurface pins the product's surface to testdata/surface.txt: every
// package, exported const, var, func and type, exported method and field
// of an exported type, cmd flag and HTTP route pattern, one per line and
// without signatures, so an unrelated refactor leaves the file alone. A
// knob, route or exported name added or removed fails here; when the
// change is meant, rewrite the file with
//
//	go test -run TestSurface . -update
//
// and review the diff. /metrics families stay out: the daemons' metrics
// goldens pin them.
func TestSurface(t *testing.T) {
	got, err := surface(".", modulePath(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Log(surfaceCounts(got))
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(surfaceGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(surfaceGolden)
	if err != nil {
		t.Fatalf("%v (write it with: go test -run TestSurface . -update)", err)
	}
	if string(raw) == text {
		return
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var diff strings.Builder
	for _, l := range got {
		if !slices.Contains(want, l) {
			fmt.Fprintf(&diff, "+ %s\n", l)
		}
	}
	for _, l := range want {
		if !slices.Contains(got, l) {
			fmt.Fprintf(&diff, "- %s\n", l)
		}
	}
	t.Fatalf("the surface differs from %s:\n%sIf the change is meant, rewrite the file with: go test -run TestSurface . -update",
		surfaceGolden, diff.String())
}

// TestSurfaceWalkerFixture pins the walker on a tree holding one item of
// each kind it lists, and each kind it must skip: an unexported type's
// exported method, unexported fields and funcs, a _test.go file and a
// nested module. The same name in two build-tagged files is one line.
func TestSurfaceWalkerFixture(t *testing.T) {
	got, err := surface("testdata/surfacefixture", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fixture/cmd/tool flag fault",
		"fixture/cmd/tool flag n",
		"fixture/cmd/tool package main",
		"fixture/lib const Limit",
		"fixture/lib field Config.Nested",
		"fixture/lib field Config.Nested.Depth",
		"fixture/lib field Config.Size",
		"fixture/lib func Kernel",
		"fixture/lib func New",
		"fixture/lib func Routes",
		"fixture/lib method Config.Scaled",
		"fixture/lib method Source.Read",
		"fixture/lib package lib",
		"fixture/lib route GET /v1/things",
		"fixture/lib type Config",
		"fixture/lib type Source",
		"fixture/lib var Default",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("walker lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// modulePath reads the module path from go.mod.
func modulePath(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}

// surface walks the module rooted at root and returns its surface as
// sorted, de-duplicated "<import path> <kind> <name>" lines. It skips
// testdata, directories the go tool ignores, nested modules and _test.go
// files, and reads every other file whatever its build tags.
func surface(root, module string) ([]string, error) {
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(rel))
		return fileSurface(fset, f, func(kind, name string) {
			seen[pkg+" "+kind+" "+name] = true
		})
	})
	if err != nil {
		return nil, err
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	slices.Sort(lines)
	return lines, nil
}

// flagNameArg maps each flag-defining function of package flag to the
// position of its name argument.
var flagNameArg = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

// fileSurface reports one file's surface items to add. A flag name or
// route pattern that is not a string literal is an error, so none
// escapes the golden.
func fileSurface(fset *token.FileSet, f *ast.File, add func(kind, name string)) error {
	add("package", f.Name.Name)
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				add("func", d.Name.Name)
			} else if recv := baseTypeName(d.Recv.List[0].Type); ast.IsExported(recv) {
				add("method", recv+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							add(d.Tok.String(), n.Name)
						}
					}
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add("type", s.Name.Name)
						typeMembers(s.Name.Name, s.Type, add)
					}
				}
			}
		}
	}

	flagPkg := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"flag"` {
			flagPkg = "flag"
			if imp.Name != nil {
				flagPkg = imp.Name.Name
			}
		}
	}
	var err error
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || err != nil {
			return err == nil
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		kind, arg := "", 0
		if x, ok := sel.X.(*ast.Ident); ok && flagPkg != "" && x.Name == flagPkg {
			if i, ok := flagNameArg[sel.Sel.Name]; ok {
				kind, arg = "flag", i
			}
		} else if sel.Sel.Name == "HandleFunc" || sel.Sel.Name == "Handle" {
			kind = "route"
		}
		if kind == "" {
			return true
		}
		if arg < len(call.Args) {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, uerr := strconv.Unquote(lit.Value)
				if uerr == nil {
					add(kind, name)
					return true
				}
			}
		}
		err = fmt.Errorf("%s: %s name is not a string literal", fset.Position(call.Pos()), kind)
		return false
	})
	return err
}

// typeMembers reports the exported fields and interface methods of an
// exported type, descending into anonymous struct fields.
func typeMembers(owner string, typ ast.Expr, add func(kind, name string)) {
	switch t := typ.(type) {
	case *ast.StructType:
		for _, fld := range t.Fields.List {
			names := fld.Names
			if len(names) == 0 { // embedded: the field is named by its type
				names = []*ast.Ident{ast.NewIdent(baseTypeName(fld.Type))}
			}
			for _, n := range names {
				if n.IsExported() {
					add("field", owner+"."+n.Name)
					typeMembers(owner+"."+n.Name, fld.Type, add)
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			for _, n := range m.Names {
				if n.IsExported() {
					add("method", owner+"."+n.Name)
				}
			}
		}
	}
}

// baseTypeName strips pointers, package qualifiers and type arguments:
// *pkg.T[K] names T.
func baseTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return baseTypeName(t.X)
	case *ast.ParenExpr:
		return baseTypeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr:
		return baseTypeName(t.X)
	case *ast.IndexListExpr:
		return baseTypeName(t.X)
	}
	return ""
}

// surfaceCounts summarizes surface lines per kind, flags per binary.
func surfaceCounts(lines []string) string {
	kinds := make(map[string]int)
	flags := make(map[string]int)
	for _, l := range lines {
		f := strings.SplitN(l, " ", 3)
		kinds[f[1]]++
		if f[1] == "flag" {
			flags[path.Base(f[0])]++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "surface: %d lines:", len(lines))
	for _, k := range []string{"package", "const", "var", "func", "type", "method", "field", "route", "flag"} {
		fmt.Fprintf(&b, " %s %d,", k, kinds[k])
	}
	b.WriteString(" flags per binary:")
	bins := make([]string, 0, len(flags))
	for bin := range flags {
		bins = append(bins, bin)
	}
	slices.Sort(bins)
	for _, bin := range bins {
		fmt.Fprintf(&b, " %s %d", bin, flags[bin])
	}
	return b.String()
}
