package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simtime"
)

// TestChaosEquivalence is the acceptance gate for the fault-injection
// campaign: every workload, under every cell of the drop-rate x outage
// grid, must produce output, exit code and semantic memory bit-identical
// to its fault-free run — and at least one cell sweep-wide must have
// exercised the local fallback path (Stats.Fallbacks > 0).
func TestChaosEquivalence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	cells, err := ChaosSweep()
	if err != nil {
		t.Fatal(err)
	}
	workloadsSeen := map[string]bool{}
	fallbackCells, faultedCells := 0, 0
	for _, c := range cells {
		workloadsSeen[c.Workload] = true
		if !c.Equal() {
			t.Errorf("%s under %s diverged from fault-free run (output=%v code=%v mem=%v)",
				c.Workload, c.Plan, c.OutputOK, c.CodeOK, c.MemOK)
		}
		if c.Fallbacks > 0 {
			fallbackCells++
		}
		if c.Injected > 0 {
			faultedCells++
		}
	}
	if got, want := len(cells), len(workloadsSeen)*6; got != want {
		t.Errorf("grid has %d cells, want %d (6 per workload)", got, want)
	}
	if fallbackCells == 0 {
		t.Error("no cell exercised local fallback; the outage schedule should abort offloads")
	}
	if faultedCells == 0 {
		t.Error("no cell injected a single fault; the grid is vacuous")
	}
	tbl := ChaosTable(cells).String()
	if !strings.Contains(tbl, "equal") || strings.Contains(tbl, "NO") {
		t.Errorf("chaos table inconsistent with cell verdicts:\n%s", tbl)
	}
	t.Logf("%d cells, %d injected faults, %d fell back locally", len(cells), faultedCells, fallbackCells)
}

// TestChaosPropertyRandomPlans drives every workload under a randomly
// generated (but seeded, hence reproducible) fault plan and requires the
// same observational equivalence as the fixed grid: graceful degradation
// must hold for arbitrary fault schedules, not just the curated ones.
func TestChaosPropertyRandomPlans(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("chaos property sweep is slow")
	}
	base, err := Sweep()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260806))
	for _, pr := range base {
		plan := faults.Plan{
			Seed:        rng.Uint64(),
			DropRate:    rng.Float64() * 0.3,
			CorruptRate: rng.Float64() * 0.1,
			DelayRate:   rng.Float64() * 0.2,
			MaxDelay:    simtime.PS(1+rng.Int63n(10)) * simtime.Millisecond,
		}
		if rng.Intn(2) == 1 {
			start := simtime.PS(rng.Int63n(int64(pr.Fast.Time)))
			plan.Outages = []faults.Window{{Start: start, End: start + 4*pr.Fast.Time}}
		}
		cell, err := RunChaosCell(pr, plan.String(), func(fw *core.Framework) { fw.Faults = &plan })
		if err != nil {
			t.Fatalf("%s under %s: %v", pr.W.Name, plan.String(), err)
		}
		if !cell.Equal() {
			t.Errorf("%s under random plan %s diverged (output=%v code=%v mem=%v)",
				pr.W.Name, plan.String(), cell.OutputOK, cell.CodeOK, cell.MemOK)
		}
	}
}
