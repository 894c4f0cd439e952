package goldentest

import (
	"strings"
	"testing"
)

// TestToolchainNoteNamesBothReleases: a drift under another Go release than
// the goldens were recorded with names both releases; under the same one, or
// with no record, it adds nothing.
func TestToolchainNoteNamesBothReleases(t *testing.T) {
	if note := toolchainNote("go1.22.5", "go1.24.0"); !strings.Contains(note, "go1.22.5") || !strings.Contains(note, "go1.24.0") {
		t.Errorf("different releases: note %q does not name both", note)
	}
	for _, recorded := range []string{"go1.24.0", ""} {
		if note := toolchainNote(recorded, "go1.24.0"); note != "" {
			t.Errorf("recorded %q, running go1.24.0: note %q, want none", recorded, note)
		}
	}
	if recordedToolchain() == "" {
		t.Error("the GOVERSION file `make golden` writes is missing or empty")
	}
}
