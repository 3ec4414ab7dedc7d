//go:debug gotypesalias=1

package offloadnn_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
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

// callersAllow lists the exported names and members kept without a
// caller outside their package, one "<import path> <name> <reason>"
// line each; a member's name reads <Type>.<Member>.
const callersAllow = "testdata/callers_allow.txt"

// TestCallers fails on an exported top-level name of internal/* or of
// the root package, or an exported method or field of one of their
// exported types, that nothing outside its own package calls, and on an
// allowlist line whose name now has a caller or is gone. A caller is a
// reference, type-checked with go/types, from another package's non-test
// code or from anywhere in bench/ (its own module, tests included: it
// may not be edited, so what it uses stays exported): a qualified name,
// a selector, a method value or expression, a composite-literal key, or
// an unkeyed literal of the whole struct. The root's Example files count
// for the root's names and for any member, which they reach through the
// root's type aliases. A method is also called when it implements an
// interface of the module or the standard library that its type or
// pointer satisfies, since a call through the interface names no method,
// and a field is called when its struct tags any field for encoding/json.
// A type is called when a caller, or a kept signature, field or method,
// names it. Unexport what only its own package uses, delete what nothing
// uses, or allowlist it in testdata/callers_allow.txt with a reason.
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
	t.Logf("callers: %d names and members: %d called, %d allowlisted", len(verdicts), counts["called"], counts["allowed"])
	if len(bad) > 0 {
		t.Fatalf("exported names or members without a caller outside their package, or stale %s lines:\n%s\n"+
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
		"fixture func Shown called",                       // an Example calls it
		"fixture func TestedOnly uncalled",                // only a plain test calls it
		"fixture type Result called",                      // an Example names the alias
		"fixture/internal/a field Outcome.Count uncalled", // set by its own package only
		"fixture/internal/a field Outcome.Kept allowed",
		"fixture/internal/a field Outcome.Part called", // a sibling reads it
		"fixture/internal/a field Record.ID called",    // the struct has json tags
		"fixture/internal/a field Record.Note called",  // untagged, in a tagged struct
		"fixture/internal/a func BenchOnly called",     // bench/'s tests count
		"fixture/internal/a func Exempt allowed",
		"fixture/internal/a func Lonely uncalled", // its own package only
		"fixture/internal/a func Probed uncalled", // another package's _test.go only
		"fixture/internal/a func ProbedAllowed allowed",
		"fixture/internal/a func Shared called",              // a sibling calls it
		"fixture/internal/a func Wired stale",                // allowlisted, yet called
		"fixture/internal/a method Handler.ServeHTTP called", // http.Handler
		"fixture/internal/a method Outcome.Inner uncalled",   // its own package only
		"fixture/internal/a method Outcome.Label called",     // an Example, through Result
		"fixture/internal/a method Outcome.Size called",      // a sibling calls it
		"fixture/internal/a method Outcome.Used stale",       // allowlisted, yet called
		"fixture/internal/a method Part.String called",       // fmt.Stringer
		"fixture/internal/a method Part.Weight called",       // b's weigher interface
		"fixture/internal/a type Handler called",             // a sibling names it
		"fixture/internal/a type Option called",              // a called func's parameter
		"fixture/internal/a type Outcome called",             // a called func's result
		"fixture/internal/a type Part called",                // Outcome's called field Part
		"fixture/internal/a type Record called",              // a sibling names it
		"fixture/internal/a type Spare uncalled",             // only an unexported field
		"fixture/internal/a undeclared Gone stale",
		"fixture/internal/a undeclared Outcome.Missing stale",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("verdicts:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// callerVerdicts returns one sorted "<import path> <kind> <name>
// <verdict>" line per exported top-level name of the root package and
// of internal/* in the module rooted at root, per exported method and
// field of their exported types (named <Type>.<Member>), and per
// allowlist line. The verdict is called, allowed, uncalled, or stale: an
// allowlist line whose name has a caller or is not declared (its kind
// then reads undeclared). callerMods are nested modules, relative to
// root, whose every file counts as a caller.
func callerVerdicts(root, module string, callerMods []string, allow string) ([]string, error) {
	l := &moduleLoader{fset: token.NewFileSet(), std: importer.Default(),
		dirs: make(map[string]string), pkgs: make(map[string]*modulePkg)}
	err := walkGoFiles(root, func(p, rel string) error {
		if !strings.HasSuffix(p, "_test.go") {
			l.dirs[path.Join(module, rel)] = filepath.Dir(p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip := range l.dirs {
		if _, err := l.Import(ip); err != nil {
			return nil, err
		}
	}
	checked := func(pkg string) bool {
		return pkg == module || strings.HasPrefix(pkg, module+"/internal/")
	}
	decls := make(map[types.Object]string) // object → "<import path> <kind> <name>"
	named := make(map[string]types.Object) // "<import path> <name>" → object
	called := make(map[types.Object]bool)
	for ip, p := range l.pkgs {
		if checked(ip) {
			declared(p.pkg, func(o types.Object, kind, name string, json bool) {
				decls[o] = ip + " " + kind + " " + name
				named[ip+" "+name] = o
				// encoding/json reaches every field of a tagged struct.
				called[o] = json
			})
		}
	}

	// Direct callers: other packages' non-test code, the nested modules,
	// and the root's Example files.
	external := func(from *types.Package) func(types.Object) bool {
		return func(o types.Object) bool { return o.Pkg() != from }
	}
	for _, p := range l.pkgs {
		p.refs(nil, external(p.pkg), called)
	}
	for _, m := range callerMods {
		err := walkGoFiles(filepath.Join(root, m), func(p, rel string) error {
			dir := filepath.Dir(p)
			if l.pkgs[dir] != nil {
				return nil
			}
			cp, err := l.check(dir, dir, func(*ast.File) bool { return true })
			if err != nil {
				return err
			}
			l.pkgs[dir] = cp
			cp.refs(nil, external(cp.pkg), called)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	examples, err := l.check(module+"_test", root, func(f *ast.File) bool {
		return strings.HasSuffix(f.Name.Name, "_test") && slices.ContainsFunc(f.Decls, isExample)
	})
	if err != nil {
		return nil, err
	}
	// An example file's tests are no examples; its helpers serve them.
	exampleDecl := func(d ast.Decl) bool {
		fd, ok := d.(*ast.FuncDecl)
		return !ok || fd.Recv != nil || !testFunc(fd.Name.Name) || isExample(fd)
	}
	examples.refs(exampleDecl, func(o types.Object) bool {
		return o.Pkg().Path() == module || isMember(o)
	}, called)

	// Methods a caller reaches without naming them, through the
	// interfaces they implement.
	byMethod, err := l.interfaces()
	if err != nil {
		return nil, err
	}
	for o := range decls {
		if fn, ok := o.(*types.Func); ok && isMember(fn) {
			t := fn.Type().(*types.Signature).Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			iface, isIface := t.Underlying().(*types.Interface)
			for _, in := range byMethod[o.Name()] {
				if isIface {
					// An interface method is called when another package's
					// type implements its interface.
					if in.pkg != o.Pkg() && in.iface == nil && types.Implements(types.NewPointer(in.typ), iface) {
						called[o] = true
					}
				} else if in.iface != nil && (types.Implements(t, in.iface) || types.Implements(types.NewPointer(t), in.iface)) {
					called[o] = true
				}
			}
		}
	}

	allowed := make(map[types.Object]bool)
	var lines []string
	for i, line := range strings.Split(allow, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("allowlist line %d: want \"<import path> <name> <reason>\", got %q", i+1, line)
		}
		if o := named[f[0]+" "+f[1]]; o != nil {
			allowed[o] = true
		} else {
			lines = append(lines, f[0]+" undeclared "+f[1]+" stale")
		}
	}

	// A kept name's or member's type calls the types it names, and a kept
	// type calls those its definition names outside its members.
	seen := make(map[types.Object]bool)
	var work []types.Object
	push := func(o types.Object) {
		if !seen[o] {
			seen[o] = true
			work = append(work, o)
		}
	}
	for o, c := range called {
		if c {
			push(o)
		}
	}
	for o := range allowed {
		push(o)
	}
	keep := func(o types.Object) {
		called[o] = true
		push(o)
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		switch o := o.(type) {
		case *types.TypeName:
			n, ok := o.Type().(*types.Named)
			if o.IsAlias() || !ok {
				namedTypes(o.Type(), keep)
				continue
			}
			for i := 0; i < n.TypeParams().Len(); i++ {
				namedTypes(n.TypeParams().At(i).Constraint(), keep)
			}
			switch u := n.Underlying().(type) {
			case *types.Struct: // fields are members
			case *types.Interface:
				for i := 0; i < u.NumEmbeddeds(); i++ {
					namedTypes(u.EmbeddedType(i), keep)
				}
			default:
				namedTypes(u, keep)
			}
		default: // a signature's receiver is not walked
			namedTypes(o.Type(), keep)
		}
	}

	for o, d := range decls {
		switch {
		case allowed[o] && called[o]:
			lines = append(lines, d+" stale")
		case called[o]:
			lines = append(lines, d+" called")
		case allowed[o]:
			lines = append(lines, d+" allowed")
		default:
			lines = append(lines, d+" uncalled")
		}
	}
	slices.Sort(lines)
	return lines, nil
}

// declared reports pkg's exported top-level names and the exported
// methods and fields of its exported types, with their kind and name,
// and for a field whether its struct tags any field for encoding/json.
func declared(pkg *types.Package, add func(o types.Object, kind, name string, json bool)) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		o := scope.Lookup(name)
		if !o.Exported() {
			continue
		}
		switch o := o.(type) {
		case *types.Const:
			add(o, "const", name, false)
		case *types.Var:
			add(o, "var", name, false)
		case *types.Func:
			add(o, "func", name, false)
		case *types.TypeName:
			add(o, "type", name, false)
			n, ok := o.Type().(*types.Named)
			if o.IsAlias() || !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					add(m, "method", name+"."+m.Name(), false)
				}
			}
			switch u := n.Underlying().(type) {
			case *types.Struct:
				structFields(u, name, add)
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						add(m, "method", name+"."+m.Name(), false)
					}
				}
			}
		}
	}
}

// structFields reports a struct's exported fields as owner.Field,
// descending into fields of anonymous struct type.
func structFields(s *types.Struct, owner string, add func(o types.Object, kind, name string, json bool)) {
	json := false
	for i := 0; i < s.NumFields(); i++ {
		_, tagged := reflect.StructTag(s.Tag(i)).Lookup("json")
		json = json || tagged
	}
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		if !f.Exported() {
			continue
		}
		add(f, "field", owner+"."+f.Name(), json)
		if inner, ok := f.Type().(*types.Struct); ok {
			structFields(inner, owner+"."+f.Name(), add)
		}
	}
}

// isMember reports whether o is a method or a struct field.
func isMember(o types.Object) bool {
	switch o := o.(type) {
	case *types.Func:
		return o.Type().(*types.Signature).Recv() != nil
	case *types.Var:
		return o.IsField()
	}
	return false
}

// namedTypes reports the declared types that t names: named types and
// aliases, with the exported and embedded fields of an anonymous struct
// and the exported methods of an anonymous interface. It does not enter
// a named type's definition.
func namedTypes(t types.Type, keep func(types.Object)) {
	switch t := t.(type) {
	case *types.Named:
		keep(t.Origin().Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			namedTypes(t.TypeArgs().At(i), keep)
		}
	case *types.Alias:
		keep(t.Obj())
		namedTypes(types.Unalias(t), keep)
	case *types.Pointer:
		namedTypes(t.Elem(), keep)
	case *types.Slice:
		namedTypes(t.Elem(), keep)
	case *types.Array:
		namedTypes(t.Elem(), keep)
	case *types.Chan:
		namedTypes(t.Elem(), keep)
	case *types.Map:
		namedTypes(t.Key(), keep)
		namedTypes(t.Elem(), keep)
	case *types.Signature:
		for i := 0; i < t.TypeParams().Len(); i++ {
			namedTypes(t.TypeParams().At(i).Constraint(), keep)
		}
		namedTypes(t.Params(), keep)
		namedTypes(t.Results(), keep)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			namedTypes(t.At(i).Type(), keep)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				namedTypes(f.Type(), keep)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumExplicitMethods(); i++ {
			if m := t.ExplicitMethod(i); m.Exported() {
				namedTypes(m.Type(), keep)
			}
		}
		for i := 0; i < t.NumEmbeddeds(); i++ {
			namedTypes(t.EmbeddedType(i), keep)
		}
	case *types.Union:
		for i := 0; i < t.Len(); i++ {
			namedTypes(t.Term(i).Type(), keep)
		}
	}
}

// testFunc reports whether a top-level func's name makes it a test,
// benchmark, fuzz target or example.
func testFunc(name string) bool {
	for _, p := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// isExample reports whether d declares an Example function.
func isExample(d ast.Decl) bool {
	fd, ok := d.(*ast.FuncDecl)
	return ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example")
}

// modulePkg is one type-checked package.
type modulePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// refs marks in called each object that p's declarations accepted by
// decl (all when nil) reference and keep accepts: a name's object, an
// embedded field a selector passes through, and every field of a struct
// literal that names none.
func (p *modulePkg) refs(decl func(ast.Decl) bool, keep func(types.Object) bool, called map[types.Object]bool) {
	mark := func(o types.Object) {
		switch v := o.(type) {
		case *types.Func:
			o = v.Origin()
		case *types.Var:
			o = v.Origin()
		}
		if o.Pkg() != nil && keep(o) {
			called[o] = true
		}
	}
	var nodes []ast.Decl
	for _, f := range p.files {
		for _, d := range f.Decls {
			if decl == nil || decl(d) {
				nodes = append(nodes, d)
			}
		}
	}
	for _, n := range nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if o := p.info.Uses[n]; o != nil {
					mark(o)
				}
			case *ast.SelectorExpr:
				sel := p.info.Selections[n]
				if sel == nil {
					break
				}
				t := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem()
					}
					s, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					mark(s.Field(i))
					t = s.Field(i).Type()
				}
			case *ast.CompositeLit:
				t := p.info.Types[n].Type
				if t == nil {
					break
				}
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				s, ok := t.Underlying().(*types.Struct)
				if !ok || len(n.Elts) == 0 {
					break
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < s.NumFields(); i++ {
						mark(s.Field(i))
					}
				}
			}
			return true
		})
	}
}

// moduleLoader type-checks a module's packages from source and imports
// the standard library through std.
type moduleLoader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string     // import path → directory
	pkgs map[string]*modulePkg // import path → package; nil while checking
}

// Import type-checks a module package from its non-test files, once.
func (l *moduleLoader) Import(ip string) (*types.Package, error) {
	dir, ok := l.dirs[ip]
	if !ok {
		return l.std.Import(ip)
	}
	if p, done := l.pkgs[ip]; done {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
		return p.pkg, nil
	}
	l.pkgs[ip] = nil
	p, err := l.check(ip, dir, func(f *ast.File) bool {
		return !strings.HasSuffix(l.fset.File(f.Pos()).Name(), "_test.go")
	})
	if err != nil {
		return nil, err
	}
	l.pkgs[ip] = p
	return p.pkg, nil
}

// check type-checks, as package ip, the files of dir that match the
// host's build context and that keep accepts.
func (l *moduleLoader) check(ip, dir string, keep func(*ast.File) bool) (*modulePkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &modulePkg{info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if keep(f) {
			p.files = append(p.files, f)
		}
	}
	conf := types.Config{Importer: l}
	p.pkg, err = conf.Check(ip, l.fset, p.files, p.info)
	return p, err
}

// implementer is an interface the caller check matches methods against,
// or a module type (iface nil) it matches interface methods against.
type implementer struct {
	pkg   *types.Package
	iface *types.Interface
	typ   types.Type
}

// stdInterfaces are the standard library packages whose interfaces the
// caller check always matches methods against (fmt.Stringer,
// http.Handler, json.Marshaler, sort.Interface, io.Reader, …), whether
// or not a module package imports them directly.
var stdInterfaces = []string{"container/heap", "encoding", "encoding/json", "flag", "fmt", "io", "net/http", "sort"}

// interfaces indexes by method name every non-generic named interface
// of the module's packages, of stdInterfaces and of the standard library
// packages they import, every interface literal in the module's code,
// error, and every module type that declares a method of that name.
func (l *moduleLoader) interfaces() (map[string][]implementer, error) {
	byMethod := make(map[string][]implementer)
	add := func(pkg *types.Package, in *types.Interface) {
		for i := 0; i < in.NumMethods(); i++ {
			name := in.Method(i).Name()
			byMethod[name] = append(byMethod[name], implementer{pkg: pkg, iface: in})
		}
	}
	add(nil, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var visit func(pkg *types.Package, module bool)
	visit = func(pkg *types.Package, module bool) {
		if seen[pkg] && !module {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if in, ok := n.Underlying().(*types.Interface); ok {
				add(pkg, in)
			} else if module {
				for i := 0; i < n.NumMethods(); i++ {
					name := n.Method(i).Name()
					byMethod[name] = append(byMethod[name], implementer{pkg: pkg, typ: n})
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp, false)
		}
	}
	// Import stdInterfaces whole first: a package met only through
	// another's export data holds just the objects that data names.
	var std []*types.Package
	for _, ip := range stdInterfaces {
		pkg, err := l.std.Import(ip)
		if err != nil {
			return nil, err
		}
		std = append(std, pkg)
	}
	for _, p := range l.pkgs {
		seen[p.pkg] = true
	}
	for _, p := range l.pkgs {
		visit(p.pkg, true)
		for _, tv := range p.info.Types {
			if in, ok := tv.Type.(*types.Interface); ok {
				add(p.pkg, in)
			}
		}
	}
	for _, pkg := range std {
		visit(pkg, false)
	}
	return byMethod, nil
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
