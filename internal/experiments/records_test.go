package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/goldentest"
)

// TestPaperArtifactsGolden pins what `offloadbench -exp all` prints: the
// text of every paper table and figure, joined the way the CLI joins them.
// The shape tests say who wins and by roughly what factor; this golden says
// nothing moved. Regenerate with `make golden` only for an intended change
// to a simulated number or a table layout.
func TestPaperArtifactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full 17-program sweep")
	}
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, e := range all {
		a, err := e.Run(DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintln(&buf, a.Text)
	}
	goldentest.Check(t, "paper_all.golden", buf.Bytes())
}
