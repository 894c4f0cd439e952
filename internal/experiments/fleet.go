package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/report"
)

// FleetSweep runs the server-fleet scaling experiment: every dispatch
// policy over each client count, against the same heterogeneous pool and
// seed, so the policy columns differ only in routing decisions. Results
// come back in (clients, policy) order and are fully deterministic in the
// seed — the bench artifact is diffable across runs.
func FleetSweep(clients []int, servers int, seed uint64, policies ...fleet.Policy) ([]*fleet.Result, error) {
	if len(policies) == 0 {
		policies = fleet.Policies()
	}
	var results []*fleet.Result
	for _, n := range clients {
		for _, pol := range policies {
			cfg := fleet.DefaultConfig(n, servers, pol)
			cfg.Seed = seed
			res, err := fleet.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("fleet sweep %s n=%d: %w", pol, n, err)
			}
			results = append(results, res)
		}
	}
	return results, nil
}

// FleetTable renders a sweep as the policy-comparison table.
func FleetTable(results []*fleet.Result) *report.Table {
	t := report.New("Fleet scheduling: dispatch policy comparison",
		"clients", "policy", "thr (rps)", "p50 (ms)", "p99 (ms)", "geomean (ms)",
		"local %", "sheds", "max queue", "avg util %")
	for _, r := range results {
		var util float64
		for _, u := range r.ServerUtilPct {
			util += u
		}
		if len(r.ServerUtilPct) > 0 {
			util /= float64(len(r.ServerUtilPct))
		}
		t.Add(r.Clients, r.Policy, r.ThroughputRPS, r.P50Ms, r.P99Ms, r.GeomeanMs,
			100*r.LocalRate, r.Sheds, r.MaxQueueDepth, util)
	}
	t.Note("same seed and workload per row group; policies differ only in routing")
	t.Note("est-aware extends the Equation-1 gate with the live queueing-delay signal")
	return t
}
