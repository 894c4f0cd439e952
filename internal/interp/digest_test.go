package interp_test

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// TestModuleDigestIsTheStringDigest holds the cache key the printer streams
// into the hash to its definition: 64-bit FNV-1a over mod.String() without
// its header line. It checks every workload's module as built and as lowered
// (which prints access layouts), and every .ir file in the repository.
func TestModuleDigestIsTheStringDigest(t *testing.T) {
	stringDigest := func(mod *ir.Module) uint64 {
		s := mod.String()
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			s = s[i+1:]
		}
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	check := func(label string, mod *ir.Module) {
		t.Helper()
		if got, want := interp.ModuleDigest(mod), stringDigest(mod); got != want {
			t.Errorf("%s: digest %#x, the string digest is %#x", label, got, want)
		}
	}
	spec := arch.ARM32()
	for _, w := range workloads.All() {
		mod := w.Build()
		check(w.Name, mod)
		work := mod.Clone("lowered")
		ir.Lower(work, spec, spec)
		check(w.Name+" lowered", work)
	}
	files, err := filepath.Glob("../../examples/*/*.ir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no .ir files found (%v)", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := ir.Parse(string(text))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		check(f, mod)
	}
}
