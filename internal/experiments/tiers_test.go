package experiments

import (
	"strings"
	"testing"

	"repro/internal/tiers"
)

// TestTierSweepFloor runs the committed benchmark configuration end to
// end: the floor must hold (3-way at or under both static baselines on
// both aggregates, non-vacuous migration) over one cell per
// (load, mode). That the sweep is deterministic in the seed is
// TestCommittedRecords' byte-compare.
func TestTierSweepFloor(t *testing.T) {
	b, err := TierSweep(TierBenchLoads(), 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckFloor(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(b.Cells), len(TierBenchLoads())*len(tiers.Modes()); got != want {
		t.Fatalf("sweep produced %d cells, want %d", got, want)
	}
}

// TestTierFloorRejects pins the floor's failure modes.
func TestTierFloorRejects(t *testing.T) {
	ok := &TierBench{
		ThreeWayP99Ms: 1, EdgeOnlyP99Ms: 2, CloudOnlyP99Ms: 2,
		ThreeWayGeoMs: 1, EdgeOnlyGeoMs: 2, CloudOnlyGeoMs: 2,
		Cells: []*TierBenchCell{{Demotions: 1}},
	}
	if err := ok.CheckFloor(); err != nil {
		t.Fatalf("healthy bench rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*TierBench)
		want   string
	}{
		{"p99", func(b *TierBench) { b.ThreeWayP99Ms = 3 }, "p99 floor"},
		{"geomean", func(b *TierBench) { b.ThreeWayGeoMs = 3 }, "geomean floor"},
		{"vacuous", func(b *TierBench) { b.Cells = []*TierBenchCell{{}} }, "vacuous"},
	}
	for _, tc := range cases {
		b := *ok
		tc.mutate(&b)
		err := b.CheckFloor()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckFloor = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestTierTableNamesP99Losses: the rendered record names every load where
// 3-way loses p99 to a static mode, and says the aggregate floor passes
// only on the mean, so no mean hides a per-load loss.
func TestTierTableNamesP99Losses(t *testing.T) {
	b := &TierBench{
		ThreeWayP99Ms: 2, EdgeOnlyP99Ms: 3, CloudOnlyP99Ms: 3,
		Cells: []*TierBenchCell{
			{Clients: 24, Mode: "3way", P99Ms: 1}, {Clients: 24, Mode: "edge-only", P99Ms: 2},
			{Clients: 24, Mode: "cloud-only", P99Ms: 2},
			{Clients: 96, Mode: "3way", P99Ms: 5}, {Clients: 96, Mode: "edge-only", P99Ms: 4},
			{Clients: 96, Mode: "cloud-only", P99Ms: 6},
		},
	}
	got := b.Table().String()
	for _, want := range []string{
		"3way loses p99 at 96 clients: 5.0 ms vs 4.0 ms edge-only",
		"passes only on the mean over loads",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("table lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "loses p99"); n != 1 {
		t.Errorf("table names %d losses, want the one at 96 clients:\n%s", n, got)
	}
}
