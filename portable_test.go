package repro_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestNoFusedArithmetic keeps the simulator's floating point the same on
// every host ISA. Go may fuse x*y + z into one rounding on arm64, ppc64le,
// s390x, riscv64 and loong64, never on amd64, so a fused product would make
// an arm64 host compute other bits than the goldens hold. An explicit
// float64(...) conversion around the product forbids the fusion. The test
// cross-compiles every package of the module for linux/arm64 with the
// compiler's assembly listing on (-S, the repository's packages only) and
// fails with file:line on each fused multiply-add it finds. It runs in
// `make check` with the root package; the cross-compile is cached after
// the first run.
func TestNoFusedArithmetic(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-gcflags=repro/...=-S", "./...")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cross-compiling for arm64: %v\n%.2000s", err, out)
	}
	listing := string(out)
	if !strings.Contains(listing, "repro/internal/estimate.Cheapest STEXT") {
		t.Fatalf("the arm64 build printed no assembly listing for repository code:\n%.2000s", out)
	}
	fused := regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[SD])\b`)
	sites := map[string]bool{}
	for _, m := range fused.FindAllStringSubmatch(listing, -1) {
		pos := m[1]
		if rel, err := filepath.Rel(wd, pos); err == nil && !strings.HasPrefix(rel, "..") {
			pos = rel
		}
		sites[pos+" "+m[2]] = true
	}
	if len(sites) > 0 {
		list := make([]string, 0, len(sites))
		for s := range sites {
			list = append(list, s)
		}
		sort.Strings(list)
		t.Errorf("%d fused multiply-adds in repository code on arm64; wrap each product in float64(...):\n  %s",
			len(list), strings.Join(list, "\n  "))
	}
}
