package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// guestLayer is the simulated machine: architecture specs, simulated time,
// paged memory, the IR and the interpreter. Everything above it — the
// offload runtime, the tracer, the fleet — drives a Machine through its
// exported API and the SysHost/IOHost interfaces it declares, so the guest
// layer never names a package above it. "ir" covers its subpackages.
var guestLayer = []string{"arch", "simtime", "freelist", "mem", "ir", "interp"}

func inGuestLayer(pkg string) bool {
	return slices.Contains(guestLayer, strings.SplitN(pkg, "/", 2)[0])
}

// TestGuestLayerImportsOnlyItself fails on a non-test file of a guest-layer
// package that imports an internal/ package outside the guest layer, with
// the file and the import. A runtime concern that wants a hook in the
// interpreter (a trace event, a counter) belongs at the SysHost call that
// reaches it, on the runtime's side.
func TestGuestLayerImportsOnlyItself(t *testing.T) {
	const prefix = "repro/internal/"
	fset := token.NewFileSet()
	checked := 0
	for _, root := range guestLayer {
		err := filepath.WalkDir(filepath.Join("internal", root), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			checked++
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if strings.HasPrefix(p, prefix) && !inGuestLayer(strings.TrimPrefix(p, prefix)) {
					t.Errorf("%s imports %s, above the guest layer", path, p)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("no guest-layer source files found; run from the module root")
	}
}

// TestGuestMemoryHasNoMaps fails on a map type anywhere in internal/mem's
// non-test files, with its position. Guest pages live in a page table
// (internal/mem/table.go): a lookup is a search of a few sorted leaves and a
// walk comes out in page order, where a map keyed by page number costs a
// hash per page-cache miss and a sort per walk.
func TestGuestMemoryHasNoMaps(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("internal", "mem", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			if mt, ok := n.(*ast.MapType); ok {
				t.Errorf("%s: a map type in the guest memory", fset.Position(mt.Pos()))
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no internal/mem source files found; run from the module root")
	}
}

// TestRuntimeRunsOnOneGoroutine fails on a go statement, a channel type, a
// send, a receive or a select in a non-test file of internal/offrt or
// internal/interp, with its position. A session's two machines take turns
// on their caller's goroutine: the server's accept suspends its machine,
// whose frames are data, and the mobile resumes it with each request, so
// the runtime needs no second goroutine to block in and no channel to hand
// control over.
func TestRuntimeRunsOnOneGoroutine(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	for _, dir := range []string{"offrt", "interp"} {
		files, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			ast.Inspect(f, func(n ast.Node) bool {
				var what string
				switch n := n.(type) {
				case *ast.GoStmt:
					what = "a go statement"
				case *ast.ChanType:
					what = "a channel type"
				case *ast.SendStmt:
					what = "a channel send"
				case *ast.SelectStmt:
					what = "a select"
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						what = "a channel receive"
					}
				}
				if what != "" {
					t.Errorf("%s: %s in the runtime", fset.Position(n.Pos()), what)
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Fatal("no internal/offrt or internal/interp source files found; run from the module root")
	}
}
