package repro_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
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

// unwrittenFields are the exported fields of internal/ structs that no
// shipped code writes, each with the reason it stays.
var unwrittenFields = map[string]string{
	"core.Framework.Engine": "read by bench/guest.go's engine probe (the benchmark module is read-only here) until ROADMAP item 3(d) retires the reference engine",
}

// shippedPackages parses every non-test Go file of the repository (bench/,
// cmd/ and examples/ included) and type-checks it, package by package, the
// repository's own imports resolved to the packages checked here and the
// standard library's from source. The result records every identifier's
// object and every composite literal's type.
func shippedPackages(t *testing.T) (map[string]*types.Package, []*ast.File, *types.Info) {
	fset := token.NewFileSet()
	src := map[string][]*ast.File{} // import path -> files
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
		path := "repro/" + filepath.ToSlash(filepath.Dir(p)) // bench/ is module repro/bench
		src[path] = append(src[path], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l := &loader{
		fset: fset,
		src:  src,
		pkgs: map[string]*types.Package{},
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	var files []*ast.File
	for path, pf := range src {
		if _, err := l.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		files = append(files, pf...)
	}
	return l.pkgs, files, l.info
}

// loader is the types.Importer behind shippedPackages.
type loader struct {
	fset *token.FileSet
	src  map[string][]*ast.File
	pkgs map[string]*types.Package
	std  types.Importer
	info *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	files, ok := l.src[path]
	if !ok {
		return l.std.Import(path)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err == nil {
		l.pkgs[path] = p
	}
	return p, err
}

// TestExportedFuncsHaveShippedCallers holds two rules over the type-checked
// non-test code of the repository, each with its allowlist:
//
//   - an exported package-level function under internal/ is referred to by
//     some shipped file, or it is listed in unshippedExports;
//   - an exported field of a struct declared under internal/ is written by
//     some shipped file, or it is listed in unwrittenFields. A write is a
//     composite-literal key, an unkeyed composite literal of the struct, or
//     the field at the root of an assignment's left side, of ++/--, of & or
//     of a pointer-receiver method call's receiver.
//
// An allowlist entry that is no longer needed, or names nothing, fails too,
// so both lists can only shrink to what is true. Methods stay outside: an
// interface a type satisfies calls them without naming them.
func TestExportedFuncsHaveShippedCallers(t *testing.T) {
	pkgs, files, info := shippedPackages(t)

	funcs := map[types.Object]string{}  // exported internal/ function -> pkg.Name
	fields := map[types.Object]string{} // exported internal/ struct field -> pkg.Type.Field
	for path, p := range pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			switch obj := p.Scope().Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					funcs[obj] = p.Name() + "." + name
				}
			case *types.TypeName:
				if st, ok := obj.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); f.Exported() {
							fields[f] = p.Name() + "." + name + "." + f.Name()
						}
					}
				}
			}
		}
	}

	called := map[types.Object]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			called[fn.Origin()] = true
		}
	}
	written := map[types.Object]bool{}
	write := func(e ast.Expr) { markWritten(info, written, e) }
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st := litStruct(info, n)
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[k].(*types.Var); ok && v.IsField() {
								written[v.Origin()] = true
							}
						}
					} else if st != nil && i < st.NumFields() {
						written[st.Field(i).Origin()] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							if _, ptr := recv.Type().(*types.Pointer); ptr {
								write(sel.X)
							}
						}
					}
				}
			}
			return true
		})
	}

	check := func(what string, decl map[types.Object]string, used map[types.Object]bool, allow map[string]string, fix string) {
		var missing, stale []string
		listed := map[string]bool{}
		for obj, name := range decl {
			_, allowed := allow[name]
			listed[name] = true
			switch {
			case !used[obj] && !allowed:
				missing = append(missing, name+" ("+obj.Pkg().Path()+")")
			case used[obj] && allowed:
				stale = append(stale, name)
			}
		}
		for name := range allow {
			if !listed[name] {
				stale = append(stale, name+" (no such "+what+")")
			}
		}
		sort.Strings(missing)
		sort.Strings(stale)
		if len(missing) > 0 {
			t.Errorf("%s:\n  %s", fix, strings.Join(missing, "\n  "))
		}
		if len(stale) > 0 {
			t.Errorf("allowlisted %ss that ship (or name nothing): drop them from the list:\n  %s", what, strings.Join(stale, "\n  "))
		}
	}
	check("function", funcs, called, unshippedExports,
		"exported functions under internal/ that no non-test file refers to — delete them with the tests that exist only to reach them, or list a genuine seam in unshippedExports with its reason")
	check("field", fields, written, unwrittenFields,
		"exported fields of internal/ structs that no non-test file writes — delete them with their branches (a field shipped code sets to one value is a constant), or list one in unwrittenFields with its reason")
}

// markWritten marks the fields an expression writes through: the field
// selected at its root and, up to the first pointer indirection, the fields
// holding the struct values it sits in (s.Stats.Retries++ writes Retries
// and Stats). Parentheses and indexing are peeled off (x.F[i] writes F).
func markWritten(info *types.Info, written map[types.Object]bool, e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			v, _ := info.Uses[x.Sel].(*types.Var)
			if v == nil || !v.IsField() {
				return
			}
			written[v.Origin()] = true
			if _, ptr := info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// litStruct is the struct type a composite literal builds, seen through
// the pointer of an elided &T in a []*T literal; nil for other literals.
func litStruct(info *types.Info, lit *ast.CompositeLit) *types.Struct {
	typ := info.Types[lit].Type
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	st, _ := typ.Underlying().(*types.Struct)
	return st
}
