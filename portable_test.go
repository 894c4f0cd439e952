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

// TestHotLoopIsCallFree keeps the fast engine's hot loop
// (interp.(*Machine).hotLoop) free of calls. Go's calling convention keeps
// no register across a call, so a single call in any arm makes the compiler
// spill the loop's state — pc, the code and register slices, the page-cache
// key — around every dispatch; everything that calls belongs in the stepper
// around the loop (execCompiled). The test compiles the interpreter for
// linux/amd64 with the assembly listing on and fails on each CALL in the
// loop's text other than the runtime's bounds-check and divide panics, which
// are never taken on a valid program. Helpers the loop uses must inline.
func TestHotLoopIsCallFree(t *testing.T) {
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-gcflags=repro/internal/interp=-S", "./internal/interp")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=amd64", "CGO_ENABLED=0", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("compiling the interpreter for amd64: %v\n%.2000s", err, out)
	}
	const head = "repro/internal/interp.(*Machine).hotLoop STEXT"
	lines := strings.Split(string(out), "\n")
	var text []string
	for i, line := range lines {
		if strings.HasPrefix(line, head) {
			// The function's text runs to the next symbol's header, the
			// first line that is not indented.
			text = lines[i : i+1]
			for _, l := range lines[i+1:] {
				if !strings.HasPrefix(l, "\t") {
					break
				}
				text = append(text, l)
			}
			break
		}
	}
	if len(text) < 100 {
		t.Fatalf("no assembly listing of the hot loop (%d lines under %q):\n%.2000s", len(text), head, out)
	}
	call := regexp.MustCompile(`\((\S+\.go:\d+)\)\s+CALL\s+(\S+)`)
	var calls []string
	for _, line := range text {
		if m := call.FindStringSubmatch(line); m != nil && !strings.HasPrefix(m[2], "runtime.panic") {
			calls = append(calls, filepath.Base(m[1])+" "+m[2])
		}
	}
	if len(calls) > 0 {
		t.Errorf("%d calls in the fast engine's hot loop; move the work to the stepper or make the helper inline:\n  %s",
			len(calls), strings.Join(calls, "\n  "))
	}
}
