package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/goldentest"
)

// TestStdoutGolden pins the compile report of the running example and of
// the hand-written IR kernel as README runs it.
func TestStdoutGolden(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-w", "chess"},
		{"-ir", "../../examples/irprogram/matmul.ir", "-stdin", "200", "-cost", "2000"},
	} {
		fmt.Fprintf(&out, "$ offloadc %s\n", strings.Join(args, " "))
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	goldentest.Check(t, "stdout.golden", out.Bytes())
}
