package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfSmoke drives the trace-analysis pipeline end to end: a chess run
// with the guest profiler and the breakdown report on must write folded
// stacks for both machines and print the top-functions and Fig. 6/7 tables.
func TestProfSmoke(t *testing.T) {
	folded := filepath.Join(t.TempDir(), "chess.folded")
	var out bytes.Buffer
	if err := run([]string{"-w", "chess", "-depth", "8", "-turns", "1", "-profile", folded, "-breakdown"}, &out); err != nil {
		t.Fatal(err)
	}
	stacks, err := os.ReadFile(folded)
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"mobile;main", "server;main"} {
		if !strings.Contains(string(stacks), prefix) {
			t.Errorf("folded profile has no %q stack:\n%s", prefix, stacks)
		}
	}
	for _, title := range []string{
		"Guest profile: top functions by self time",
		"Per-offload time breakdown (Fig. 6 shape)",
		"Radio-state energy attribution (fast model, Fig. 7 shape)",
	} {
		if !strings.Contains(out.String(), title) {
			t.Errorf("stdout has no %q table:\n%s", title, out.String())
		}
	}
}

// TestStdinRejectsNonInteger: a -stdin token that is not an integer is an
// error naming the token, not a silently shortened input stream.
func TestStdinRejectsNonInteger(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-ir", "../../examples/irprogram/matmul.ir", "-stdin", "200,2o0", "-cost", "2000"}, &out)
	if want := `-stdin: token "2o0" is not an integer`; err == nil || err.Error() != want {
		t.Errorf("run = %v, want %s", err, want)
	}
}

// TestFlagValuesAreValidated: an out-of-range number is refused by flag
// name before anything runs (-cost 0 used to run at cost 1, -exemplars -3
// to keep every job).
func TestFlagValuesAreValidated(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-ir", "../../examples/irprogram/matmul.ir", "-stdin", "200,200", "-cost", "0"}, "-cost"},
		{[]string{"-w", "chess", "-cost", "-4"}, "-cost"},
		{[]string{"-w", "chess", "-exemplars", "-3", "-critpath"}, "-exemplars"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one naming %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before refusing", tc.args, out.String())
		}
	}
}
