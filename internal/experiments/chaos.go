package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/offrt"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// ChaosCell is one workload executed under one fault plan — link faults,
// server faults (crash, drain, slowdown, stall on the serving host), or
// both — compared against its fault-free offloaded run. Which recovery the
// runtime actually took — retransmission, checkpoint-migration, re-send on
// a spare, local fallback — shows in the counters; the equivalence checks
// must hold regardless.
type ChaosCell struct {
	Workload string
	// Plan labels the fault plan (and, in the server-death sweeps, the
	// recovery mode the cell is set up to exercise, as a "mode: " prefix).
	Plan string

	// OutputOK/CodeOK/MemOK are the three equivalence checks against the
	// fault-free run: stdout bytes, exit code, semantic memory digest.
	OutputOK bool
	CodeOK   bool
	MemOK    bool

	// Injected counts the link faults the plan actually landed; the rest is
	// the recovery layer's reaction, read off the session's Stats.
	// Fallbacks counts the offloads re-executed locally (the acceptance
	// signal that a cell exercised local fallback).
	Injected     int64
	Retries      int
	Aborts       int
	Migrations   int
	CrashRetries int
	Fallbacks    int

	// Slowdown is faulted time over fault-free time: the price of the
	// recovery, in simulated wall-clock.
	Slowdown float64
}

// Equal reports whether the faulted run was observationally identical to
// the fault-free one.
func (c *ChaosCell) Equal() bool { return c.OutputOK && c.CodeOK && c.MemOK }

// ChaosGrid builds the drop-rate x outage-schedule grid for one workload
// whose fault-free offloaded run took total simulated time. Schedule A has
// no outage (pure loss); schedule B opens a long link outage a fifth of
// the way into the fault-free timeline, which kills in-flight offloads and
// forces the local fallback path. Seeds are assigned by the caller.
func ChaosGrid(total simtime.PS) []faults.Plan {
	drops := []float64{0.05, 0.15, 0.30}
	outages := [][]faults.Window{
		nil,
		{{Start: total / 5, End: 4 * total}},
	}
	var plans []faults.Plan
	for _, out := range outages {
		for _, dr := range drops {
			plans = append(plans, faults.Plan{
				DropRate:    dr,
				CorruptRate: dr / 5,
				Outages:     out,
			})
		}
	}
	return plans
}

// RunChaosCell executes one workload on a fast-network framework that
// configure has armed with faults (link plan, server plan, migration — nil
// migration is the paper's fallback-only runtime) and scores it against
// the cached fault-free result. label names the plan in the cell and in
// errors.
func RunChaosCell(pr *ProgramResult, label string, configure func(fw *core.Framework)) (*ChaosCell, error) {
	fw := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, pr.W.CostScale)
	configure(fw)
	off, err := fw.RunOffloaded(pr.Compile, pr.W.EvalIO(), offrt.Policy{})
	if err != nil {
		return nil, fmt.Errorf("%s under %s: %w", pr.W.Name, label, err)
	}
	cell := &ChaosCell{
		Workload:     pr.W.Name,
		Plan:         label,
		OutputOK:     off.Output == pr.Fast.Output,
		CodeOK:       off.Code == pr.Fast.Code,
		MemOK:        off.MemDigest == pr.Fast.MemDigest,
		Injected:     off.FaultStats.Total(),
		Retries:      off.Stats.Retries,
		Aborts:       off.Stats.Aborts,
		Migrations:   off.Stats.Migrations,
		CrashRetries: off.Stats.CrashRetries,
		Fallbacks:    off.Stats.Fallbacks,
	}
	if pr.Fast.Time > 0 {
		cell.Slowdown = float64(off.Time) / float64(pr.Fast.Time)
	}
	return cell, nil
}

// ChaosSweep runs every workload of the main sweep under the full fault
// grid (3 drop rates x 2 outage schedules), reusing the sweep's cached
// compilations and fault-free baselines. Seeds are derived from the
// (workload, plan) position, so the whole campaign is reproducible.
func ChaosSweep() ([]*ChaosCell, error) {
	base, err := Sweep()
	if err != nil {
		return nil, err
	}
	var cells []*ChaosCell
	for wi, pr := range base {
		for pi, plan := range ChaosGrid(pr.Fast.Time) {
			plan.Seed = uint64(wi)*97 + uint64(pi) + 1
			cell, err := RunChaosCell(pr, plan.String(), func(fw *core.Framework) { fw.Faults = &plan })
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// ChaosTable renders a chaos campaign: one row per (workload, plan) cell
// with its fault counts, recovery actions and equivalence verdict.
func ChaosTable(cells []*ChaosCell) *report.Table {
	t := report.New("Chaos: fault-injection equivalence",
		"program", "plan", "faults", "retries", "aborts", "migrations", "crash retries", "fallbacks", "time x", "equal")
	bad := 0
	withFallback := 0
	for _, c := range cells {
		verdict := "yes"
		if !c.Equal() {
			verdict = "NO"
			bad++
		}
		if c.Fallbacks > 0 {
			withFallback++
		}
		t.Add(c.Workload, c.Plan, c.Injected, c.Retries, c.Aborts, c.Migrations, c.CrashRetries,
			c.Fallbacks, fmt.Sprintf("%.2f", c.Slowdown), verdict)
	}
	t.Note("%d cells, %d diverged, %d exercised local fallback; every cell must match the fault-free run bit for bit.",
		len(cells), bad, withFallback)
	return t
}
