package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/goldentest"
)

// TestCommittedRecords regenerates every BENCH_*.json at the repo root that
// is a function of its parameters alone — through the catalogue entry, the
// path offloadbench runs — holds it to its floor, and byte-compares it with
// the committed file. This table is the one place a record's defining
// parameters are written down. `make golden` rewrites the files after an
// intended behaviour change; BENCH_interp.json and BENCH_bind.json are host
// measurements and belong to `make bench`.
func TestCommittedRecords(t *testing.T) {
	t.Parallel()
	scale := DefaultParams()
	scale.Exemplars = 64
	for _, rec := range []struct {
		file, exp string
		params    Params
		slow      bool
	}{
		{"BENCH_fleet.json", "fleet", DefaultParams(), false},
		{"BENCH_migrate.json", "migrate", DefaultParams(), false},
		{"BENCH_tiers.json", "tiers", DefaultParams(), false},
		{"BENCH_fleet_scale.json", "fleetscale", scale, true},
	} {
		t.Run(rec.file, func(t *testing.T) {
			if rec.slow && testing.Short() {
				t.Skip("million-client cell")
			}
			sel, err := Select(rec.exp)
			if err != nil {
				t.Fatal(err)
			}
			a, err := sel[0].Run(rec.params)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkFloor(a.Record); err != nil {
				t.Fatal(err) // before CheckFile: -update must not commit a record that fails its floor
			}
			got, err := BenchJSON(a.Record)
			if err != nil {
				t.Fatal(err)
			}
			goldentest.CheckFile(t, filepath.Join("..", "..", rec.file), got)
		})
	}
}

// TestPaperArtifactsGolden pins what `offloadbench -exp all` prints: the
// text of every paper table and figure, joined the way the CLI joins them.
// The shape tests say who wins and by roughly what factor; this golden says
// nothing moved. Regenerate with `make golden` only for an intended change
// to a simulated number or a table layout.
func TestPaperArtifactsGolden(t *testing.T) {
	t.Parallel()
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
