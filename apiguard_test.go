package uqsim

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedAllow lists the exported identifiers of internal/ that no non-test
// code uses but that stay. A key is the identifier's path below internal/:
// "pkg.Func", "pkg.Type" or "pkg.Type.Method". There are two valid reasons:
// a reference oracle that tests compare against (name the test), or a
// method of a type the facade aliases that uqsim.go or README documents
// (name the line).
var unusedAllow = map[string]string{
	"analytic.MMkMeanWait":    "closed-form oracle: hybrid TestWaitForMatchesMeanWait and sim TestClosedRateMatchesFixedLengthLoop compare against it",
	"analytic.MMkTimeoutProb": "closed-form oracle: the reference loop of hybrid TestAmplificationMatchesFixedLengthLoop computes with it",
	"des.Engine.After":        "facade Engine method documented at uqsim.go:116 (\"At and After allocate a handle per call\") and in README's des/ entry",
}

// globalWriteAllow lists the package-level variables of internal/ that
// code assigns outside their declaration or an init function.
var globalWriteAllow = map[string]string{
	"sim.OnNew": "process-wide hook the watchdog and the poison test set; ROADMAP 11(a) replaces it with a per-run stop token",
}

// TestAPIGuard type-checks the module's non-test packages, the benchmark's
// sources under bench/ and the facade's Example functions, then fails when
//   - an exported function, method or type in internal/ has no use outside
//     its own declaration (and, for a type, its own methods) and is not on
//     unusedAllow;
//   - an unusedAllow entry names nothing or is used after all;
//   - a package-level variable of internal/ is assigned outside its
//     declaration or an init function and is not on globalWriteAllow, or
//     an entry there names nothing or is never assigned.
//
// Method uses count through Func.Origin, so a use of an instantiated
// generic method is a use of its declaration. A method that implements a
// named interface of the module, error or fmt.Stringer counts as used.
func TestAPIGuard(t *testing.T) {
	l := newAPILoader(t)
	dead, unusedStale := l.unusedAPI()
	writes, writeStale := l.globalWrites()
	for _, e := range dead {
		t.Errorf("%s: exported %s has no non-test user: delete it, move it into a _test.go file, or add it to unusedAllow with a reason", e.pos, e.key)
	}
	for _, key := range unusedStale {
		t.Errorf("unusedAllow[%q]: names no unused exported identifier in internal/; remove the entry", key)
	}
	for _, e := range writes {
		t.Errorf("%s: package-level variable %s is assigned outside its declaration or init; pass it as a parameter or field instead", e.pos, e.key)
	}
	for _, key := range writeStale {
		t.Errorf("globalWriteAllow[%q]: names no package-level variable of internal/ that is assigned after init; remove the entry", key)
	}
}

// apiPkg is one type-checked package.
type apiPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// apiLoader type-checks the module's packages from source; the standard
// library comes from its own sources, so nothing is built or downloaded.
type apiLoader struct {
	t     *testing.T
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string][]string // import path -> file names
	pkgs  map[string]*apiPkg
	order []*apiPkg // in the order checking finished
}

const apiModule = "uqsim"

func newAPILoader(t *testing.T) *apiLoader {
	t.Helper()
	fset := token.NewFileSet()
	l := &apiLoader{
		t:    t,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string][]string{},
		pkgs: map[string]*apiPkg{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p == "bench" || p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if err != nil {
			var none *build.NoGoError
			if errors.As(err, &none) {
				return nil
			}
			return err
		}
		ip := path.Join(apiModule, filepath.ToSlash(p))
		l.dirs[ip] = joinAll(p, bp.GoFiles)
		if p == "." {
			// The facade's Example functions are its documentation.
			l.dirs[apiModule+"_test"] = joinAll(p, bp.XTestGoFiles)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// bench/ is a module of its own that imports this one's internals.
	bp, err := build.ImportDir("bench", 0)
	if err != nil {
		t.Fatal(err)
	}
	l.dirs[apiModule+"/bench"] = joinAll("bench", bp.GoFiles)
	for _, ip := range sortedKeys(l.dirs) {
		l.load(ip)
	}
	return l
}

func joinAll(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (l *apiLoader) Import(ip string) (*types.Package, error) {
	if _, ok := l.dirs[ip]; ok {
		return l.load(ip).types, nil
	}
	return l.std.Import(ip)
}

func (l *apiLoader) load(ip string) *apiPkg {
	if p, ok := l.pkgs[ip]; ok {
		if p == nil {
			l.t.Fatalf("import cycle through %s", ip)
		}
		return p
	}
	l.pkgs[ip] = nil
	p := &apiPkg{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range l.dirs[ip] {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(ip, l.fset, p.files, p.info)
	if err != nil {
		l.t.Fatalf("type-checking %s: %v", ip, err)
	}
	p.types = tp
	l.pkgs[ip] = p
	l.order = append(l.order, p)
	return p
}

// fileOf returns the file of p that contains pos.
func (p *apiPkg) fileOf(pos token.Pos) *ast.File {
	i := sort.Search(len(p.files), func(i int) bool { return p.files[i].End() > pos })
	return p.files[i]
}

// internalKey names an object of internal/ the way the allowlists do, or
// returns "" for an object outside internal/.
func internalKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	rel, ok := strings.CutPrefix(obj.Pkg().Path(), apiModule+"/internal/")
	if !ok {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named := receiverNamed(recv.Type()); named != nil {
				return rel + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return rel + "." + obj.Name()
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// apiFinding is one object the guard reports.
type apiFinding struct {
	key string
	pos token.Position
}

// enclosing returns the top-level declaration of f that contains pos.
func enclosing(f *ast.File, pos token.Pos) ast.Decl {
	i := sort.Search(len(f.Decls), func(i int) bool { return f.Decls[i].End() > pos })
	if i < len(f.Decls) && f.Decls[i].Pos() <= pos {
		return f.Decls[i]
	}
	return nil
}

// selfUse reports whether a use of obj inside decl is part of obj's own
// declaration: obj's own FuncDecl or TypeSpec, or, for a type, one of its
// methods.
func selfUse(info *types.Info, decl ast.Decl, obj types.Object) bool {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if info.Defs[d.Name] == obj {
			return true
		}
		if fn, ok := info.Defs[d.Name].(*types.Func); ok && d.Recv != nil {
			named := receiverNamed(fn.Type().(*types.Signature).Recv().Type())
			return named != nil && named.Obj() == obj
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok && info.Defs[ts.Name] == obj {
				return true
			}
		}
	}
	return false
}

// unusedAPI returns the exported identifiers of internal/ with no use
// that are not allowlisted, and the allowlist entries that do not name
// such an identifier.
func (l *apiLoader) unusedAPI() (dead []apiFinding, stale []string) {
	candidates := map[types.Object]string{}
	var named []*types.Named
	for _, p := range l.order {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
			if internalKey(obj) == "" {
				continue
			}
			switch obj := obj.(type) {
			case *types.Func:
				if obj.Exported() {
					candidates[obj] = internalKey(obj)
				}
			case *types.TypeName:
				if obj.IsAlias() {
					continue
				}
				if obj.Exported() {
					candidates[obj] = internalKey(obj)
				}
				n, ok := obj.Type().(*types.Named)
				if !ok || types.IsInterface(n) {
					continue
				}
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); m.Exported() {
						candidates[m] = internalKey(m)
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, p := range l.order {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if _, ok := candidates[obj]; !ok || used[obj] {
				continue
			}
			if !selfUse(p.info, enclosing(p.fileOf(id.Pos()), id.Pos()), obj) {
				used[obj] = true
			}
		}
	}

	// A method that implements an interface can be called through it.
	fmtPkg, err := l.std.Import("fmt")
	if err != nil {
		l.t.Fatal(err)
	}
	ifaces := []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
	}
	for _, n := range named {
		if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && n.TypeParams().Len() == 0 {
			ifaces = append(ifaces, it)
		}
	}
	// The method may be promoted from an embedded field.
	for _, n := range named {
		if types.IsInterface(n) || n.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if fn, ok := lookupMethod(ptr, m); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}

	listed := map[string]bool{}
	for obj, key := range candidates {
		if used[obj] {
			continue
		}
		if _, ok := unusedAllow[key]; ok {
			listed[key] = true
			continue
		}
		dead = append(dead, apiFinding{key, l.fset.Position(obj.Pos())})
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	for _, key := range sortedKeys(unusedAllow) {
		if !listed[key] {
			stale = append(stale, key)
		}
	}
	return dead, stale
}

func lookupMethod(t types.Type, m *types.Func) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// globalWrites returns the assignments to package-level variables of
// internal/ outside their declaration or an init function that are not
// allowlisted, and the allowlist entries that match no such assignment.
func (l *apiLoader) globalWrites() (writes []apiFinding, stale []string) {
	written := map[string]bool{}
	for _, p := range l.order {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch s := n.(type) {
				case *ast.AssignStmt:
					lhs = s.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{s.X}
				case *ast.RangeStmt:
					if s.Tok == token.ASSIGN {
						lhs = []ast.Expr{s.Key, s.Value}
					}
				}
				for _, e := range lhs {
					v := rootGlobal(p.info, e)
					if v == nil || internalKey(v) == "" || declaredOrInit(p.info, enclosing(f, e.Pos()), v) {
						continue
					}
					key := internalKey(v)
					if _, ok := globalWriteAllow[key]; ok {
						written[key] = true
						continue
					}
					writes = append(writes, apiFinding{key, l.fset.Position(e.Pos())})
				}
				return true
			})
		}
	}
	for _, key := range sortedKeys(globalWriteAllow) {
		if !written[key] {
			stale = append(stale, key)
		}
	}
	return writes, stale
}

// rootGlobal returns the package-level variable that an assignment to e
// writes into, if any: the variable itself, or one it holds a field,
// element or pointee of.
func rootGlobal(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return packageVar(info.Uses[x])
		case *ast.SelectorExpr:
			if v := packageVar(info.Uses[x.Sel]); v != nil {
				return v
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func packageVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// declaredOrInit reports whether decl is v's own declaration or an init
// function of v's package.
func declaredOrInit(info *types.Info, decl ast.Decl, v *types.Var) bool {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return d.Recv == nil && d.Name.Name == "init" && info.Defs[d.Name].Pkg() == v.Pkg()
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, name := range vs.Names {
					if info.Defs[name] == v {
						return true
					}
				}
			}
		}
	}
	return false
}
