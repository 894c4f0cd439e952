package experiments

import (
	"strings"
	"testing"
)

// TestChaosServerDeath is the server-death acceptance gate: across 10
// deterministic seeds the serving host dies mid-offload, and whichever
// recovery the runtime takes — checkpoint-migration off a drain, re-send
// on a spare after a crash, or local fallback with no spare — the run's
// output, exit code and semantic memory must be bit-identical to the
// fault-free run.
func TestChaosServerDeath(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("server-death sweep is slow")
	}
	const seeds = 10
	cells, err := ServerDeathSweep(seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3*seeds {
		t.Fatalf("sweep produced %d cells, want %d (3 recovery modes x %d seeds)", len(cells), 3*seeds, seeds)
	}
	recovered := map[string]int{}
	for _, c := range cells {
		if !c.Equal() {
			t.Errorf("%s under %s diverged from fault-free run (output=%v code=%v mem=%v)",
				c.Workload, c.Plan, c.OutputOK, c.CodeOK, c.MemOK)
		}
		// The sweep labels each cell "<mode>: <plan>".
		mode, _, _ := strings.Cut(c.Plan, ":")
		recovered[mode] += c.Migrations + c.CrashRetries + c.Fallbacks
	}
	// Each mode must have actually exercised its recovery machinery at
	// least once across the sweep — a fault that never lands proves nothing.
	for _, mode := range []string{"retry", "fallback", "migrate"} {
		if recovered[mode] == 0 {
			t.Errorf("no %s-mode cell took any recovery action; the fault schedule is vacuous", mode)
		}
	}
	tbl := ChaosTable(cells).String()
	if strings.Contains(tbl, "NO") {
		t.Errorf("server chaos table records divergence:\n%s", tbl)
	}
	t.Logf("%d cells: recovery actions retry=%d fallback=%d migrate=%d",
		len(cells), recovered["retry"], recovered["fallback"], recovered["migrate"])
}

// TestMigrateBenchFloor runs the fleet-level migration benchmark at its
// committed shape (10 seeds, 64 clients, 4 servers, one server killed
// mid-run) and enforces the floor: migration-enabled recovery beats
// fallback-only on aggregate p99 and geomean.
func TestMigrateBenchFloor(t *testing.T) {
	bench, err := MigrateSweep(10, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.CheckFloor(); err != nil {
		t.Fatal(err)
	}
	t.Logf("p99: migrate %.2f ms vs fallback %.2f ms; geomean: migrate %.2f ms vs fallback %.2f ms",
		bench.MigrateP99Ms, bench.FallbackP99Ms, bench.MigrateGeoMs, bench.FallbackGeoMs)
}
