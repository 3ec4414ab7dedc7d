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

// callersAllow lists the exported names kept without a caller outside
// their package, one "<import path> <name> <reason>" line each.
const callersAllow = "testdata/callers_allow.txt"

// TestCallers fails on an exported top-level name of internal/* or of
// the root package that nothing outside its own package calls, and on
// an allowlist line whose name now has a caller or is gone. A caller is
// a qualified reference from another package's non-test code or from
// anywhere in bench/ (its own module, tests included: it may not be
// edited, so what it uses stays exported); for the root package, a
// reference from an Example function also counts. A type is also called
// when a called name's signature, exported field or exported method
// names it. Methods and fields themselves are not checked. Unexport
// what only its own package uses, delete what nothing uses, or allowlist
// it in testdata/callers_allow.txt with a reason.
func TestCallers(t *testing.T) {
	allow, err := os.ReadFile(callersAllow)
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := callerVerdicts(".", modulePath(t), []string{"bench"}, string(allow))
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	counts := make(map[string]int)
	for _, v := range verdicts {
		verdict := v[strings.LastIndex(v, " ")+1:]
		counts[verdict]++
		if verdict == "uncalled" || verdict == "stale" {
			bad = append(bad, v)
		}
	}
	t.Logf("callers: %d names: %d called, %d allowlisted", len(verdicts), counts["called"], counts["allowed"])
	if len(bad) > 0 {
		t.Fatalf("exported names without a caller outside their package, or stale %s lines:\n%s\n"+
			"Unexport or delete an uncalled name, or allowlist it with a reason; drop a stale line.",
			callersAllow, strings.Join(bad, "\n"))
	}
}

// TestCallersFixture pins the caller check's verdicts on a tree holding
// one case of each rule.
func TestCallersFixture(t *testing.T) {
	allow, err := os.ReadFile("testdata/callerfixture/allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := callerVerdicts("testdata/callerfixture", "fixture", []string{"bench"}, string(allow))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fixture func Shown called",                // an Example calls it
		"fixture func TestedOnly uncalled",         // only a plain test calls it
		"fixture/internal/a func BenchOnly called", // bench/'s tests count
		"fixture/internal/a func Exempt allowed",
		"fixture/internal/a func Lonely uncalled", // its own package only
		"fixture/internal/a func Probed uncalled", // another package's _test.go only
		"fixture/internal/a func ProbedAllowed allowed",
		"fixture/internal/a func Shared called",  // a sibling calls it
		"fixture/internal/a func Wired stale",    // allowlisted, yet called
		"fixture/internal/a type Option called",  // a called func's parameter
		"fixture/internal/a type Outcome called", // a called func's result
		"fixture/internal/a type Part called",    // an exported field of Outcome
		"fixture/internal/a type Spare uncalled", // only an unexported field
		"fixture/internal/a undeclared Gone stale",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("verdicts:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// callerNode is one top-level declaration of a checked package.
type callerNode struct {
	kind string
	// sig holds the type expressions that name the types a caller of
	// this declaration reaches: a func's signature; a type's definition
	// and its exported methods' signatures; a const's or var's type.
	sig []sigExpr
}

// sigExpr is a type expression and the import names of its file.
type sigExpr struct {
	expr    ast.Expr
	imports map[string]string
}

// callerVerdicts returns one sorted "<import path> <kind> <name>
// <verdict>" line per exported top-level name of the root package and
// of internal/* in the module rooted at root, and per allowlist line.
// The verdict is called, allowed, uncalled, or stale: an allowlist line
// whose name has a caller or is not declared (its kind then reads
// undeclared). callerMods are nested modules, relative to root, whose
// every file counts as a caller.
func callerVerdicts(root, module string, callerMods []string, allow string) ([]string, error) {
	checked := func(pkg string) bool {
		return pkg == module || strings.HasPrefix(pkg, module+"/internal/")
	}
	fset := token.NewFileSet()
	decls := make(map[string]map[string]*callerNode) // package → name → node
	called := make(map[[2]string]bool)
	// refs marks every qualified reference in n to another module package.
	refs := func(n ast.Node, imports map[string]string, keep func(pkg string) bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// An identifier the parser resolved is a local, not a package.
			if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil {
				if pkg, ok := imports[x.Name]; ok && keep(pkg) {
					called[[2]string{pkg, sel.Sel.Name}] = true
				}
			}
			return true
		})
	}
	inModule := func(pkg string) bool { return pkg == module || strings.HasPrefix(pkg, module+"/") }
	parse := func(p string) (*ast.File, map[string]string, error) {
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		imports := make(map[string]string)
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == "." {
				return nil, nil, fmt.Errorf("%s: a dot import hides its callers", p)
			}
			imports[name] = ip
		}
		return f, imports, nil
	}

	err := walkGoFiles(root, func(p, rel string) error {
		f, imports, err := parse(p)
		if err != nil {
			return err
		}
		pkg := path.Join(module, rel)
		if !strings.HasSuffix(p, "_test.go") {
			refs(f, imports, func(q string) bool { return q != pkg && inModule(q) })
			if checked(pkg) {
				addCallerDecls(decls, pkg, f, imports)
			}
			return nil
		}
		if pkg != module {
			return nil
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				refs(fd, imports, func(q string) bool { return q == module })
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, m := range callerMods {
		err := walkGoFiles(filepath.Join(root, m), func(p, _ string) error {
			f, imports, err := parse(p)
			if err != nil {
				return err
			}
			refs(f, imports, inModule)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// A called name's signature calls the types it names, transitively.
	var work [][2]string
	for k := range called {
		work = append(work, k)
	}
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		n := decls[k[0]][k[1]]
		if n == nil {
			continue
		}
		mark := func(pkg, name string) {
			if kk := [2]string{pkg, name}; !called[kk] {
				called[kk] = true
				work = append(work, kk)
			}
		}
		for _, e := range n.sig {
			sigTypes(e.expr, func(q, name string) {
				if q == "" {
					mark(k[0], name)
				} else if pkg, ok := e.imports[q]; ok {
					mark(pkg, name)
				}
			})
		}
	}

	var lines []string
	allowed := make(map[[2]string]bool)
	for i, line := range strings.Split(allow, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("allowlist line %d: want \"<import path> <name> <reason>\", got %q", i+1, line)
		}
		k := [2]string{f[0], f[1]}
		allowed[k] = true
		if n := decls[k[0]][k[1]]; n == nil || !ast.IsExported(k[1]) {
			lines = append(lines, k[0]+" undeclared "+k[1]+" stale")
		} else if called[k] {
			lines = append(lines, k[0]+" "+n.kind+" "+k[1]+" stale")
		}
	}
	for pkg, names := range decls {
		for name, n := range names {
			k := [2]string{pkg, name}
			verdict := "uncalled"
			switch {
			case !ast.IsExported(name), allowed[k] && called[k]:
				continue
			case called[k]:
				verdict = "called"
			case allowed[k]:
				verdict = "allowed"
			}
			lines = append(lines, pkg+" "+n.kind+" "+name+" "+verdict)
		}
	}
	slices.Sort(lines)
	return lines, nil
}

// addCallerDecls records the top-level declarations of one file of pkg,
// exported or not: an unexported type an exported one embeds passes its
// own signature on.
func addCallerDecls(decls map[string]map[string]*callerNode, pkg string, f *ast.File, imports map[string]string) {
	if decls[pkg] == nil {
		decls[pkg] = make(map[string]*callerNode)
	}
	// add appends to name's signature; a method may come before its type.
	add := func(kind, name string, e ast.Expr) {
		n := decls[pkg][name]
		if n == nil {
			n = &callerNode{}
			decls[pkg][name] = n
		}
		if kind != "" {
			n.kind = kind
		}
		if e != nil {
			n.sig = append(n.sig, sigExpr{e, imports})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add("func", d.Name.Name, d.Type)
			} else if d.Name.IsExported() {
				add("", baseTypeName(d.Recv.List[0].Type), d.Type)
			}
		case *ast.GenDecl:
			var typ ast.Expr // an implicitly repeated const spec keeps the type
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					if s.Type != nil || len(s.Values) > 0 {
						typ = s.Type
						if typ == nil && len(s.Values) == 1 {
							typ = literalType(s.Values[0])
						}
					}
					for _, id := range s.Names {
						add(d.Tok.String(), id.Name, typ)
					}
				case *ast.TypeSpec:
					add("type", s.Name.Name, s.Type)
					if s.TypeParams != nil {
						add("type", s.Name.Name, &ast.FuncType{Params: s.TypeParams})
					}
				}
			}
		}
	}
}

// literalType returns the type a composite literal value spells out,
// or nil: a value's type is otherwise unknown without type-checking.
func literalType(e ast.Expr) ast.Expr {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if c, ok := e.(*ast.CompositeLit); ok {
		return c.Type
	}
	return nil
}

// sigTypes reports each type name in a type expression, with its
// package qualifier or "", skipping unexported struct fields and
// interface methods. An embedded field counts whatever its name.
func sigTypes(e ast.Expr, name func(qual, name string)) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.Ident:
			name("", t.Name)
		case *ast.SelectorExpr:
			if x, ok := t.X.(*ast.Ident); ok {
				name(x.Name, t.Sel.Name)
			}
			return false
		case *ast.StructType:
			exportedTypes(t.Fields, name)
			return false
		case *ast.InterfaceType:
			exportedTypes(t.Methods, name)
			return false
		case *ast.Field: // a parameter or result: its names are no types
			sigTypes(t.Type, name)
			return false
		}
		return true
	})
}

// exportedTypes reports the type names of a struct's exported and
// embedded fields, or of an interface's exported and embedded methods.
func exportedTypes(list *ast.FieldList, name func(qual, name string)) {
	for _, f := range list.List {
		if len(f.Names) == 0 || slices.ContainsFunc(f.Names, (*ast.Ident).IsExported) {
			sigTypes(f.Type, name)
		}
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
// sorted, de-duplicated "<import path> <kind> <name>" lines. It reads
// every non-test file walkGoFiles finds, whatever its build tags.
func surface(root, module string) ([]string, error) {
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	err := walkGoFiles(root, func(p, rel string) error {
		if strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, rel)
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

// walkGoFiles calls fn with each .go file of the module rooted at root
// and its directory relative to root, slash-separated. It skips
// testdata, directories the go tool ignores and nested modules.
func walkGoFiles(root string, fn func(p, rel string) error) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
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
		if !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		return fn(p, filepath.ToSlash(rel))
	})
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
