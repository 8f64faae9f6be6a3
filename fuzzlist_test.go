package uqsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestFuzzTargetsInMakefile keeps `make fuzz` complete: every fuzz target
// in the module's test files must have a line of the Makefile's fuzz
// recipe that runs it in its package, and every such line must name a
// target that exists. bench/ is a module of its own and is not searched.
func TestFuzzTargetsInMakefile(t *testing.T) {
	fset := token.NewFileSet()
	targets := map[string]bool{} // "pkg Name", pkg cleaned relative to the root
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "bench" || p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && isFuzzTarget(fn) {
				targets[path.Clean(filepath.ToSlash(filepath.Dir(p)))+" "+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets; the search is broken")
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(makefile), "\nfuzz:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz target")
	}
	run := map[string]bool{}
	for _, line := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		var pkg, name string
		fields := strings.Fields(line)
		for i := 0; i+1 < len(fields); i++ {
			switch fields[i] {
			case "test":
				pkg = path.Clean(fields[i+1])
			case "-fuzz":
				name = fields[i+1]
			}
		}
		if pkg == "" || name == "" {
			t.Errorf("Makefile fuzz recipe line %q names no package and -fuzz target", strings.TrimSpace(line))
			continue
		}
		run[pkg+" "+name] = true
	}

	for _, key := range sortedKeys(targets) {
		if !run[key] {
			t.Errorf("fuzz target %s is not run by the Makefile's fuzz recipe", key)
		}
	}
	for _, key := range sortedKeys(run) {
		if !targets[key] {
			t.Errorf("the Makefile's fuzz recipe runs %s, which is no fuzz target", key)
		}
	}
}

// isFuzzTarget reports whether fn is func FuzzXxx(*testing.F).
func isFuzzTarget(fn *ast.FuncDecl) bool {
	if !strings.HasPrefix(fn.Name.Name, "Fuzz") || fn.Type.Params.NumFields() != 1 {
		return false
	}
	star, ok := fn.Type.Params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "F"
}
