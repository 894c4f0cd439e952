// Package goldentest centralizes golden-file comparison for the repo's
// snapshot tests. Every golden test calls Check or CheckFile, and one shared
// -update flag (wired to `make golden`) regenerates the files.
package goldentest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
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
		t.Errorf("%s drifted from golden file; diff the output or run `make golden`\ngot:\n%s", path, got)
	}
}
