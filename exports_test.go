package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unshippedExports are the exported functions of internal/ packages that
// nothing outside a _test.go file refers to, each with the reason it stays.
var unshippedExports = map[string]string{
	"goldentest.Check":             "test-support package: the golden comparison the golden tests call (CheckFile is reached through it)",
	"arch.IA32":                    "the 32-bit little-endian server of the cross-architecture differential tests",
	"faults.MustInjector":          "seam: seven offrt tests build their injectors through it",
	"fleet.PlanFromImage":          "called by the BENCH_bind.json writer (interp/bindbench_test.go) until ROADMAP item 3(b) retires that record",
	"experiments.ServerDeathSweep": "the body of make chaos's server-death gate (TestChaosServerDeath)",
	"analysis.VerifyModuleSSA":     "the SSA verifier the pipeline tests call after every pass",
}

// TestExportedFuncsHaveShippedCallers: an exported package-level function
// under internal/ is referred to by some non-test Go file of the
// repository (bench/, cmd/ and examples/ included), or it is listed in
// unshippedExports with a reason; an entry of that list which does have a
// shipped reference fails too, so the list can only shrink to what is
// true. A reference is a bare identifier in the declaring package or a
// pkg.Name selector through a file's import of it. Methods and struct
// fields are out of reach on purpose: the same name on two types makes a
// syntactic check lie.
func TestExportedFuncsHaveShippedCallers(t *testing.T) {
	type parsed struct {
		dir  string // slash-separated, relative to the repository root
		file *ast.File
	}
	var files []parsed
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") { // .git, .bench_build
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, parsed{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type fn struct{ dir, name string } // an exported func and its internal/ directory
	pkgName := map[string]string{}     // internal/ directory -> package name
	notBare := map[*ast.Ident]bool{}   // a declaration's own name, or the Sel of a selector
	refs := map[fn]int{}               // shipped references
	for _, pf := range files {
		if !strings.HasPrefix(pf.dir, "internal/") {
			continue
		}
		pkgName[pf.dir] = pf.file.Name.Name
		for _, decl := range pf.file.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil && d.Name.IsExported() {
				notBare[d.Name] = true
				refs[fn{pf.dir, d.Name.Name}] = 0
			}
		}
	}
	count := func(f fn) {
		if _, ok := refs[f]; ok {
			refs[f]++
		}
	}
	for _, pf := range files {
		imported := map[string]string{} // local name -> internal/ directory
		for _, imp := range pf.file.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ipath, "repro/")
			if !ok || pkgName[dir] == "" {
				continue
			}
			local := pkgName[dir]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imported[local] = dir
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				notBare[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
					count(fn{imported[x.Name], n.Sel.Name})
				}
			case *ast.Ident:
				if !notBare[n] {
					count(fn{pf.dir, n.Name})
				}
			}
			return true
		})
	}

	var unreferenced, stale []string
	listed := map[string]bool{}
	for f, n := range refs {
		name := pkgName[f.dir] + "." + f.name
		_, allowed := unshippedExports[name]
		listed[name] = true
		switch {
		case n == 0 && !allowed:
			unreferenced = append(unreferenced, name+" ("+f.dir+")")
		case n > 0 && allowed:
			stale = append(stale, name)
		}
	}
	for name := range unshippedExports {
		if !listed[name] {
			stale = append(stale, name+" (no such function)")
		}
	}
	sort.Strings(unreferenced)
	sort.Strings(stale)
	if len(unreferenced) > 0 {
		t.Errorf("exported functions under internal/ that no non-test file refers to — delete them with the tests that exist only to reach them, or list a genuine seam in unshippedExports with its reason:\n  %s",
			strings.Join(unreferenced, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("unshippedExports entries that have a shipped reference (or name nothing): drop them from the list:\n  %s",
			strings.Join(stale, "\n  "))
	}
}
