package experiments

import (
	"strings"
	"testing"

	"repro/internal/tiers"
)

// TestTierSweepFloor runs the committed benchmark configuration end to
// end: the floor must hold (3-way at or under both static baselines on
// both aggregates, shard parity, non-vacuous migration) over one cell per
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
		ShardParity: true,
		Cells:       []*TierBenchCell{{Promotions: 1}},
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
		{"parity", func(b *TierBench) { b.ShardParity = false }, "diverged"},
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
