package estimate

import (
	"testing"

	"repro/internal/simtime"
)

func TestMigrationCost(t *testing.T) {
	p := Params{R: 6, BandwidthBps: 10_000_000_000, RTT: 100 * simtime.Microsecond}
	// 1 MiB over 10 Gbps is ~0.84 ms one way.
	got := p.MigrationCost(1 << 20)
	want := simtime.FromSeconds(float64(1<<20)*8/10e9) + p.RTT
	if got != want {
		t.Fatalf("MigrationCost = %v, want %v", got, want)
	}
	// Cost scales with checkpoint size.
	if p.MigrationCost(1<<24) <= p.MigrationCost(1<<20) {
		t.Fatal("cost does not grow with checkpoint size")
	}
	// Zero bandwidth degenerates to the handshake RTT.
	if z := (Params{RTT: simtime.Millisecond}).MigrationCost(1 << 30); z != simtime.Millisecond {
		t.Fatalf("zero-bandwidth cost = %v", z)
	}
}

func TestMigrationDecision(t *testing.T) {
	p := Params{R: 6, BandwidthBps: 10_000_000_000, RTT: 100 * simtime.Microsecond}
	remaining := 600 * simtime.Millisecond // 100ms of server time at R=6
	smallCkpt := p.MigrationCost(64 << 10)

	for _, tc := range []struct {
		name       string
		slowFactor float64
		cost       simtime.PS
		canFinish  bool
		want       MigrationChoice
	}{
		// Healthy server: riding it out beats paying any migration cost.
		{"healthy", 1, smallCkpt, true, Finish},
		// 10x slowdown: 1s to finish in place vs ~100ms + small ship.
		{"heavy-slowdown", 10, smallCkpt, true, Migrate},
		// Mild slowdown: finish (110ms) still beats migrate (100ms + cost)
		// when the checkpoint is big.
		{"mild-slowdown-big-ckpt", 1.1, 20 * simtime.Millisecond, true, Finish},
		// Crash: can't finish, migration wins over mobile re-execution.
		{"crash-with-spare", 0, smallCkpt, false, Migrate},
		// Drain excludes finish even though the server still computes.
		{"drain", 1, smallCkpt, false, Migrate},
		// Migration cost so high that re-executing locally is cheaper.
		{"absurd-ship-cost", 0, 2 * remaining, false, Fallback},
		// Ties go to the earlier of fallback, finish, migrate: 100ms x6
		// finishes exactly at the 600ms fallback.
		{"tie-finish-fallback", 6, remaining, true, Fallback},
		// 100ms x2 finishing ties 100ms shipping + 100ms run, below 600ms.
		{"tie-migrate-finish", 2, 100 * simtime.Millisecond, true, Finish},
		// 500ms shipping + 100ms run ties the 600ms fallback.
		{"tie-migrate-fallback", 1, 500 * simtime.Millisecond, false, Fallback},
	} {
		if got := p.MigrationDecision(remaining, tc.slowFactor, tc.cost, tc.canFinish); got != tc.want {
			t.Errorf("%s: MigrationDecision = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMigrationDecisionHugeSlowdown: a factor whose T_finish passes the
// clock's range loses to migration, where the product once wrapped
// negative and won as Finish.
func TestMigrationDecisionHugeSlowdown(t *testing.T) {
	p := Params{R: 6, BandwidthBps: 10_000_000_000, RTT: 100 * simtime.Microsecond}
	if got := p.MigrationDecision(100*simtime.Second, 1e9, p.MigrationCost(64<<10), true); got != Migrate {
		t.Errorf("MigrationDecision(100s, x1e9) = %v, want %v", got, Migrate)
	}
}
