package main

import (
	"bytes"
	"testing"

	"repro/internal/goldentest"
)

// TestStdoutGolden pins the example's whole stdout.
func TestStdoutGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "stdout.golden", out.Bytes())
}
