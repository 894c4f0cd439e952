package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/goldentest"
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
// to keep every job, -exemplars without -critpath to do nothing).
func TestFlagValuesAreValidated(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-ir", "../../examples/irprogram/matmul.ir", "-stdin", "200,200", "-cost", "0"}, "-cost"},
		{[]string{"-w", "chess", "-cost", "-4"}, "-cost"},
		{[]string{"-w", "chess", "-exemplars", "-3", "-critpath"}, "-exemplars"},
		{[]string{"-w", "chess", "-exemplars", "8"}, "-exemplars"},
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

// TestServerFaultsNameAHostThatExists: a session has host 0, and host 1
// with -migrate's spare. A -server-faults event on any other host exits 1
// naming it, where it used to run as if fault-free because nothing
// consulted the event.
func TestServerFaultsNameAHostThatExists(t *testing.T) {
	matmul := []string{"-ir", "../../examples/irprogram/matmul.ir", "-stdin", "200,200", "-cost", "2000"}
	for _, tc := range []struct {
		args []string
		want string // "" = runs
	}{
		{[]string{"-server-faults", "crash=3@1ms"}, "names server 3, but the pool has 1"},
		{[]string{"-server-faults", "crash=1@1ms"}, "names server 1, but the pool has 1"},
		{[]string{"-server-faults", "crash=3@1ms", "-migrate"}, "names server 3, but the pool has 2"},
		{[]string{"-server-faults", "crash=1@1ms", "-migrate"}, ""},
	} {
		var out bytes.Buffer
		err := run(append(append([]string(nil), matmul...), tc.args...), &out)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestMetricsGolden pins -metrics stdout on three runs that between them
// fill every latency row: a drain migration on the hand-written IR kernel,
// sjeng under link drops and corruption (retries and backoffs), and mcf on
// the 3-way tier gate (the session.tier.* rows).
func TestMetricsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-ir", "../../examples/irprogram/matmul.ir", "-stdin", "200,200", "-cost", "2000",
			"-server-faults", "drain=0@1ms", "-migrate", "-metrics"},
		{"-w", "458.sjeng", "-faults", "drop=0.2,corrupt=0.05,seed=3", "-metrics"},
		{"-w", "429.mcf", "-tiers", "3way", "-metrics"},
	} {
		fmt.Fprintf(&out, "$ offloadrun %s\n", strings.Join(args, " "))
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	goldentest.Check(t, "metrics_golden.txt", out.Bytes())
}
