package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// docIndex is everything a backticked name in the documentation may resolve
// to, read from every Go file of the repository (tests, bench/, cmd/ and
// examples/ included) with go/parser alone.
type docIndex struct {
	pkgs    map[string]map[string]bool // package name, or path below internal/ -> top-level names
	funcs   map[string]bool            // every package-level function, tests included
	members map[string]map[string]bool // "Type" and "pkg.Type" -> fields and methods
	strs    map[string]bool            // every string literal
	paths   map[string]bool            // every file's repository path and base name
	inner   []string                   // package paths below internal/
}

// buildDocIndex walks the repository from root.
func buildDocIndex(t *testing.T, root string) *docIndex {
	ix := &docIndex{
		pkgs:    map[string]map[string]bool{},
		funcs:   map[string]bool{},
		members: map[string]map[string]bool{},
		strs:    map[string]bool{},
		paths:   map[string]bool{},
	}
	inner := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") { // .git, .bench_build
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		ix.paths[rel], ix.paths[d.Name()] = true, true
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		keys := []string{strings.TrimSuffix(f.Name.Name, "_test")}
		if dir, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(rel)), "internal/"); ok {
			keys = append(keys, dir)
			inner[dir] = true
		}
		ix.addFile(f, keys)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range inner {
		ix.inner = append(ix.inner, dir)
	}
	sort.Strings(ix.inner)
	return ix
}

// addFile indexes one file's declarations under each of its package keys,
// and its string literals.
func (ix *docIndex) addFile(f *ast.File, keys []string) {
	top := func(name string) {
		for _, k := range keys {
			if ix.pkgs[k] == nil {
				ix.pkgs[k] = map[string]bool{}
			}
			ix.pkgs[k][name] = true
		}
	}
	member := func(typ, name string) {
		for _, k := range append([]string{""}, keys...) {
			key := typ
			if k != "" {
				key = k + "." + typ
			}
			if ix.members[key] == nil {
				ix.members[key] = map[string]bool{}
			}
			ix.members[key][name] = true
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top(d.Name.Name)
				ix.funcs[d.Name.Name] = true
			} else if typ := recvType(d.Recv.List[0].Type); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					top(s.Name.Name)
					var fields *ast.FieldList
					switch typ := s.Type.(type) {
					case *ast.StructType:
						fields = typ.Fields
					case *ast.InterfaceType:
						fields = typ.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							member(s.Name.Name, n.Name)
						}
						if len(fld.Names) == 0 { // embedded
							if n := recvType(fld.Type); n != "" {
								member(s.Name.Name, n)
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top(n.Name)
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				ix.strs[s] = true
			}
		}
		return true
	})
}

// recvType is the bare type name of a receiver or embedded field:
// *T, T[P] and pkg.T give T.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// dottedName is pkg.Name, pkg.Type.Member, Type.Member, a metric or
	// trace-kind name or a file name, with an optional trailing "()".
	dottedName = regexp.MustCompile(`^([A-Za-z_][\w/]*)((?:\.[A-Za-z_]\w*)+)(?:\(\))?$`)
	prNumber   = regexp.MustCompile(`\bPRs? \d+`)
	// testName is a test, benchmark or fuzz target, with an optional
	// sub-test path.
	testName = regexp.MustCompile(`^((?:Test|Benchmark|Fuzz)[A-Z_]\w*)(?:/\S*)?$`)
)

// codeSpans returns the backticked spans of a Markdown text outside fenced
// code blocks.
func codeSpans(doc string) []string {
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose.WriteString(line + "\n")
		}
	}
	var spans []string
	for _, m := range codeSpan.FindAllStringSubmatch(prose.String(), -1) {
		spans = append(spans, m[1])
	}
	return spans
}

// resolves reports whether a span names something in the repository. A
// test, benchmark or fuzz target must be a package-level function. A dotted
// span whose first segment is a package key or a type name resolves as a
// string literal, a file path, a package's top-level name, pkg.Type.Member,
// or Type.Member. Anything else (the standard library, a command line, a
// formula) is not checked.
func (ix *docIndex) resolves(span string) bool {
	if m := testName.FindStringSubmatch(span); m != nil {
		return ix.funcs[m[1]]
	}
	m := dottedName.FindStringSubmatch(span)
	if m == nil {
		return true
	}
	first := m[1]
	if ix.pkgs[first] == nil && ix.members[first] == nil {
		return true
	}
	name := first + m[2]
	if ix.strs[name] || ix.paths[name] {
		return true
	}
	rest := strings.Split(m[2][1:], ".")
	switch len(rest) {
	case 1:
		return ix.pkgs[first][rest[0]] || ix.members[first][rest[0]]
	case 2:
		return ix.members[first+"."+rest[0]][rest[1]]
	}
	return false
}

// docProblems lists what is wrong with one document: every backticked
// reference that resolves to nothing and every "PR <n>" in it.
func (ix *docIndex) docProblems(doc string) []string {
	var out []string
	for _, s := range codeSpans(doc) {
		if !ix.resolves(s) {
			out = append(out, "unresolved `"+s+"`")
		}
	}
	for _, pr := range prNumber.FindAllString(doc, -1) {
		out = append(out, "history: "+strconv.Quote(pr))
	}
	return out
}

// unlisted returns the internal/ packages that section 3 of DESIGN.md (its
// system inventory) does not name: a package is named by a span whose
// first dotted segment, less any internal/ prefix, is its path or its name.
func (ix *docIndex) unlisted(design string) []string {
	_, sec, _ := strings.Cut("\n"+design, "\n## 3.")
	sec, _, _ = strings.Cut(sec, "\n## ")
	named := map[string]bool{}
	for _, s := range codeSpans(sec) {
		first, _, _ := strings.Cut(s, ".")
		named[strings.TrimPrefix(first, "internal/")] = true
	}
	var out []string
	for _, dir := range ix.inner {
		if !named[dir] && !named[filepath.Base(dir)] {
			out = append(out, "internal/"+dir)
		}
	}
	return out
}

// TestDesignNamesExist holds DESIGN.md, README.md and EXPERIMENTS.md to
// what the repository contains: every backticked package, type, member,
// string-literal, file or test name resolves, none carries per-PR history
// ("PR <n>"), and DESIGN.md's section 3 names every package under
// internal/. There is no allowlist: a failure is fixed by naming what
// exists or deleting the sentence.
func TestDesignNamesExist(t *testing.T) {
	ix := buildDocIndex(t, ".")
	for _, name := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if p := ix.docProblems(string(doc)); len(p) > 0 {
			t.Errorf("%s: %d names that do not exist or history that belongs in CHANGES.md:\n  %s",
				name, len(p), strings.Join(p, "\n  "))
		}
		if name == "DESIGN.md" {
			if p := ix.unlisted(string(doc)); len(p) > 0 {
				t.Errorf("DESIGN.md §3 does not name %d packages:\n  %s", len(p), strings.Join(p, "\n  "))
			}
		}
	}
}

// TestDocResolver keeps the guard above non-vacuous whatever the documents
// say: the resolver accepts names that exist and rejects ones that do not.
func TestDocResolver(t *testing.T) {
	ix := buildDocIndex(t, ".")
	for _, tc := range []struct {
		doc  string
		want int // problems
	}{
		{"`fleet.Run`", 0},
		{"`obs/analyze.Crit`", 0},
		{"`Session.exchange`", 0},
		{"`fleet.dispatch`", 0}, // a trace-kind name: a string literal
		{"`BENCH_tiers.json`", 0},
		{"`fleet.Config.Migrate`", 0},
		{"`Stats()`, `sync.Pool`, `make check`", 0}, // not references
		{"`fleet.NoSuch`", 1},
		{"`Session.noSuch`", 1},
		{"`fleet.Migrate`", 1}, // a field of Config, not a package name
		{"`fleet.Config.NoSuch`", 1},
		{"`TestDocResolver`, `BenchmarkFleetCell/overload/seq`", 0},
		{"`TestNoSuchThing`", 1},
		{"Measured (PR 7)", 1},
		{"```\n`fleet.NoSuch`\n```", 0}, // fenced code is not prose
	} {
		if got := ix.docProblems(tc.doc); len(got) != tc.want {
			t.Errorf("%q: %d problems %v, want %d", tc.doc, len(got), got, tc.want)
		}
	}
	design := "## 3. Inventory\n`internal/fleet`, `obs/analyze.Crit`\n## 4. Next\n`internal/tiers`\n"
	missing := ix.unlisted(design)
	for _, want := range []string{"internal/tiers", "internal/simtime"} {
		if !strings.Contains(strings.Join(missing, " "), want) {
			t.Errorf("unlisted(%q) = %v, want %s among them", design, missing, want)
		}
	}
	for _, named := range []string{"internal/fleet", "internal/obs/analyze"} {
		for _, m := range missing {
			if m == named {
				t.Errorf("unlisted(%q) names %s, which section 3 lists", design, named)
			}
		}
	}
}
