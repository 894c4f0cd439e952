// Package goldentest centralizes golden-file comparison for the repo's
// snapshot tests. Every golden test calls Check or CheckFile, and one shared
// -update flag (wired to `make golden`) regenerates the files. `make golden`
// also writes the Go release it ran (`go env GOVERSION`) to the GOVERSION
// file beside this package's source, and a drift names that release when it
// is not the one running: the goldens hold bits a new release may move, such
// as compress/flate's output, whose size is a write-back's simulated traffic.
package goldentest

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing")

// Check compares got against the golden file testdata/<name> relative to
// the calling test's package directory; see CheckFile.
func Check(t *testing.T, name string, got []byte) {
	t.Helper()
	CheckFile(t, filepath.Join("testdata", name), got)
}

// CheckFile compares got against the golden file at path (relative to the
// calling test's package directory). With -update it (re)writes the file
// instead; without it, a missing or drifted file fails the test with the
// regeneration command.
func CheckFile(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `make golden`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file%s; diff the output or run `make golden`\ngot:\n%s",
			path, toolchainNote(recordedToolchain(), runtime.Version()), got)
	}
}

// recordedToolchain is the Go release `make golden` last ran, as the
// GOVERSION file beside this source holds it; "" when it cannot be read.
func recordedToolchain() string {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return ""
	}
	b, err := os.ReadFile(filepath.Join(filepath.Dir(self), "GOVERSION"))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// toolchainNote is what a drift message adds about the toolchain: both
// releases when the goldens were recorded with another one than is running,
// nothing when they agree or the recorded one is unknown.
func toolchainNote(recorded, running string) string {
	if recorded == "" || recorded == running {
		return ""
	}
	return fmt.Sprintf(" (recorded with %s, running %s: the toolchain changed, which may explain it)", recorded, running)
}
