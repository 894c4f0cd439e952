package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/report"
)

// Params carries the offloadbench flag values an experiment may read; each
// field is one flag, and an experiment ignores the ones it has no use for.
type Params struct {
	Depth        int64  // -depth: maximum chess difficulty (table1)
	Clients      int    // -clients: concurrent mobile clients; 0 = the experiment's default (64, or 1000000 for fleetscale)
	Servers      int    // -servers: server pool size (fleet, migrate)
	Policy       string // -policy: one dispatch policy, or "all" (fleet)
	Seed         uint64 // -seed: simulation seed (fleet, tiers)
	Exemplars    int    // -exemplars: tail-sampler K per retention category, 0 = off (fleet, fleetscale)
	CritPath     bool   // -critpath: print the retained exemplars' critical paths (fleet)
	MigrateSeeds int    // -migrate-seeds: number of benchmark seeds (migrate)
	EdgeServers  int    // -edge-servers: edge pool size (tiers)
	CloudServers int    // -cloud-servers: cloud pool size (tiers)
	ServerFaults string // -server-faults: server-fault spec; selects the server campaign (chaos)
}

// DefaultParams returns the flag defaults: the configuration of the root
// benchmarks and, with the overrides TestCommittedRecords lists, of the
// committed BENCH_*.json records.
func DefaultParams() Params {
	return Params{Depth: 11, Servers: 4, Policy: "all", Seed: 1,
		MigrateSeeds: 10, EdgeServers: 4, CloudServers: 1}
}

// Validate rejects flag values no experiment can run with, naming the
// flag. -clients 0 is valid: it asks for the experiment's own default.
func (p Params) Validate() error {
	switch {
	case p.Depth < 1:
		return fmt.Errorf("-depth must be at least 1, got %d", p.Depth)
	case p.Clients < 0:
		return fmt.Errorf("-clients must not be negative (0 = the experiment's default), got %d", p.Clients)
	case p.Servers < 1:
		return fmt.Errorf("-servers must be at least 1, got %d", p.Servers)
	case p.Exemplars < 0:
		return fmt.Errorf("-exemplars must not be negative, got %d", p.Exemplars)
	case p.MigrateSeeds < 1:
		return fmt.Errorf("-migrate-seeds must be at least 1, got %d", p.MigrateSeeds)
	case p.EdgeServers < 0:
		return fmt.Errorf("-edge-servers must not be negative, got %d", p.EdgeServers)
	case p.CloudServers < 0:
		return fmt.Errorf("-cloud-servers must not be negative, got %d", p.CloudServers)
	case p.EdgeServers+p.CloudServers == 0:
		return fmt.Errorf("-edge-servers and -cloud-servers must not both be 0")
	}
	return nil
}

func (p Params) clients(def int) int {
	if p.Clients > 0 {
		return p.Clients
	}
	return def
}

// Metric is one headline number of an artifact, named as the root
// benchmarks report it (gap_x, geomean_speedup_x, ...).
type Metric struct {
	Name  string
	Value float64
}

// Artifact is what one experiment produces: the rendered text the CLI
// prints, the headline numbers the benchmarks report, and the
// machine-readable BENCH_*.json record (nil when the experiment has none).
type Artifact struct {
	Text    string
	Metrics []Metric
	Record  any
}

// Experiment is one catalogue entry. Run may return an artifact together
// with an error: a campaign that ran to the end and then failed its own
// equivalence check still has its table to show.
type Experiment struct {
	Name  string
	Desc  string
	Paper bool // part of the paper's evaluation: run by -exp all and the root benchmarks
	Run   func(Params) (*Artifact, error)
}

// Catalogue is the one list of experiments, in presentation order. The
// offloadbench usage text, -exp lookup, -exp all and BenchmarkPaper are
// all read from it.
var Catalogue = []Experiment{
	{"table1", "chess movement time by difficulty, smartphone vs desktop (Table 1)", true, runTable1},
	{"table2", "native code in the top 20 open-source Android apps (Table 2)", true,
		func(Params) (*Artifact, error) { return rendered(Table2(), nil) }},
	{"table3", "chess profiling and static performance estimation (Table 3)", true,
		func(Params) (*Artifact, error) { return rendered(Table3()) }},
	{"table4", "per-program offload statistics: targets, coverage, traffic (Table 4)", true,
		func(Params) (*Artifact, error) { return rendered(Table4()) }},
	{"table5", "comparison of computation offload systems (Table 5)", true,
		func(Params) (*Artifact, error) { return rendered(Table5(), nil) }},
	{"fig6a", "execution time normalized to local, both networks (Figure 6a)", true, runFig6a},
	{"fig6b", "battery consumption normalized to local, both networks (Figure 6b)", true, runFig6b},
	{"fig7", "breakdown of offloaded execution time (Figure 7)", true,
		func(Params) (*Artifact, error) { t, _, err := Fig7(); return rendered(t, err) }},
	{"fig8", "power over time for sjeng and gobmk (Figure 8)", true,
		func(Params) (*Artifact, error) {
			s, _, err := Fig8()
			if err != nil {
				return nil, err
			}
			return &Artifact{Text: s}, nil
		}},
	{"ablation", "design choices off one at a time (prefetch, compression, gate, remote I/O, batching)", true, runAblation},
	{"crossarch", "x86-64 vs big-endian 32-bit server, bit-identical output", true, runCrossArch},
	{"chaos", "fault-injection campaign; with -server-faults, server-fault equivalence", false, runChaos},
	{"fleet", "dispatch-policy comparison over a shared server pool (BENCH_fleet.json)", false, runFleet},
	{"fleetscale", "million-client headline, adaptive admission, exemplars (BENCH_fleet_scale.json)", false, runFleetScale},
	{"migrate", "mid-offload migration vs fallback-only recovery (BENCH_migrate.json)", false,
		func(p Params) (*Artifact, error) {
			return recorded(MigrateSweep(p.MigrateSeeds, p.clients(64), p.Servers))
		}},
	{"tiers", "3-way edge/cloud placement vs static single-tier baselines (BENCH_tiers.json)", false,
		func(p Params) (*Artifact, error) {
			return recorded(TierSweep(TierBenchLoads(), p.EdgeServers, p.CloudServers, p.Seed))
		}},
}

// Select resolves an -exp value: one catalogue name, or "all" for the
// Paper entries in order.
func Select(name string) ([]Experiment, error) {
	var picked []Experiment
	names := make([]string, 0, len(Catalogue))
	for _, e := range Catalogue {
		if e.Name == name || (name == "all" && e.Paper) {
			picked = append(picked, e)
		}
		names = append(names, e.Name)
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (have %s, all)", name, strings.Join(names, ", "))
	}
	return picked, nil
}

// rendered wraps a table-only experiment.
func rendered(t *report.Table, err error) (*Artifact, error) {
	if err != nil {
		return nil, err
	}
	return &Artifact{Text: t.String()}, nil
}

// recorded wraps a bench sweep: the record renders itself, and is what
// -out writes (WriteBench refuses it while its floor fails).
func recorded(rec interface{ Table() *report.Table }, err error) (*Artifact, error) {
	if err != nil {
		return nil, err
	}
	return &Artifact{Text: rec.Table().String(), Record: rec}, nil
}

func runTable1(p Params) (*Artifact, error) {
	t := Table1(p.Depth)
	a := &Artifact{Text: t.String()}
	if n := len(t.Rows); n > 0 {
		gap, err := strconv.ParseFloat(t.Rows[n-1][3], 64)
		if err != nil {
			return nil, fmt.Errorf("parse gap %q: %v", t.Rows[n-1][3], err)
		}
		a.Metrics = []Metric{{"gap_x", gap}}
	}
	return a, nil
}

// runFig6a reports the geomean speedup on the fast network (the paper's
// 6.42x headline).
func runFig6a(Params) (*Artifact, error) {
	t, rows, err := Fig6a()
	if err != nil {
		return nil, err
	}
	var fasts []float64
	for _, r := range rows {
		fasts = append(fasts, r.Fast)
	}
	g := report.Geomean(fasts)
	a := &Artifact{Text: t.String(), Metrics: []Metric{{"geomean_norm_time", g}}}
	if g > 0 {
		a.Metrics = append(a.Metrics, Metric{"geomean_speedup_x", 1 / g})
	}
	return a, nil
}

func runFig6b(Params) (*Artifact, error) {
	t, rows, err := Fig6b()
	if err != nil {
		return nil, err
	}
	var fasts, slows []float64
	for _, r := range rows {
		fasts = append(fasts, r.Fast)
		slows = append(slows, r.Slow)
	}
	fast, slow := 100*(1-report.Geomean(fasts)), 100*(1-report.Geomean(slows))
	t.Note("measured: geomean battery saving %.1f%% slow / %.1f%% fast", slow, fast)
	return &Artifact{Text: t.String(), Metrics: []Metric{
		{"battery_saving_fast_pct", fast},
		{"battery_saving_slow_pct", slow},
	}}, nil
}

func runAblation(Params) (*Artifact, error) {
	t, rs, err := Ablation()
	if err != nil {
		return nil, err
	}
	a := &Artifact{Text: t.String()}
	for _, r := range rs {
		if r.Name == "remote I/O optimization off (gobmk)" && r.Baseline > 0 {
			a.Metrics = append(a.Metrics, Metric{"remoteIO_slowdown_x", r.Ablated / r.Baseline})
		}
	}
	return a, nil
}

func runCrossArch(Params) (*Artifact, error) {
	t, rows, err := CrossArch()
	if err != nil {
		return nil, err
	}
	var overhead float64
	for _, r := range rows {
		overhead += r.BE32Sec/r.X8664Sec - 1
	}
	return &Artifact{Text: t.String(), Metrics: []Metric{
		{"endian_overhead_pct", 100 * overhead / float64(len(rows))},
	}}, nil
}

// runChaos is the link-fault campaign, or with a -server-faults spec the
// server-fault one. Either way a cell that diverges from its fault-free
// run fails the experiment after the table is rendered.
func runChaos(p Params) (*Artifact, error) {
	sweep := ChaosSweep
	if p.ServerFaults != "" {
		plan, err := faults.ParseServer(p.ServerFaults)
		if err != nil {
			return nil, err
		}
		sweep = func() ([]*ChaosCell, error) { return ServerChaosSpecSweep(plan) }
	}
	cells, err := sweep()
	if err != nil {
		return nil, err
	}
	a := &Artifact{Text: ChaosTable(cells).String()}
	migrations, retries, fallbacks := 0, 0, 0
	for _, c := range cells {
		migrations += c.Migrations
		retries += c.CrashRetries
		fallbacks += c.Fallbacks
		if !c.Equal() {
			return a, fmt.Errorf("chaos: %s under %s diverged from its fault-free run", c.Workload, c.Plan)
		}
	}
	if p.ServerFaults != "" {
		a.Text += fmt.Sprintf("\nserver chaos: %d migrations, %d crash retries, %d fallbacks across %d workloads",
			migrations, retries, fallbacks, len(cells))
	}
	return a, nil
}

// runFleetScale appends what the record must not hold: how long the
// headline cell took on this host.
func runFleetScale(p Params) (*Artifact, error) {
	b, elapsed, err := ScaleSweep(p.clients(1_000_000), p.Exemplars)
	if err != nil {
		return nil, err
	}
	host := fmt.Sprintf("\nbig cell on this host: %.2f s, %.0f events/s (host-dependent: not in the record)",
		elapsed.Seconds(), float64(b.Big.Events)/elapsed.Seconds())
	return &Artifact{Text: b.Table().String() + host, Record: b}, nil
}

// runFleet compares the dispatch policies on one cell; with -exemplars it
// then deep-dives one policy (the chosen one, est-aware under "all") with
// the tail sampler on.
func runFleet(p Params) (*Artifact, error) {
	var pols []fleet.Policy
	deepDive := fleet.EstAware
	if p.Policy != "all" {
		pol, err := fleet.ParsePolicy(p.Policy)
		if err != nil {
			return nil, err
		}
		pols, deepDive = []fleet.Policy{pol}, pol
	}
	results, err := FleetSweep([]int{p.clients(64)}, p.Servers, p.Seed, pols...)
	if err != nil {
		return nil, err
	}
	a := &Artifact{Text: FleetTable(results).String(), Record: results}
	if p.Exemplars > 0 {
		ex, err := fleetExemplars(p, deepDive)
		if err != nil {
			return nil, err
		}
		a.Text += "\n" + ex
	}
	return a, nil
}

// fleetExemplars re-runs one fleet cell with p.Exemplars exemplars per
// retention category and a bounded tracer ring, reports the retained set,
// and with -critpath renders the per-exemplar critical-path decomposition
// and tail summary.
func fleetExemplars(p Params, pol fleet.Policy) (string, error) {
	cfg := fleet.DefaultConfig(p.clients(64), p.Servers, pol)
	cfg.Seed = p.Seed
	cfg.Exemplars = p.Exemplars
	tr := obs.NewTracer(0)
	cfg.Tracer = tr
	res, err := fleet.Run(cfg)
	if err != nil {
		return "", err
	}
	parts := []string{fmt.Sprintf("exemplars (%s): %d span trees retained (K=%d per category) in %d trace events",
		pol, len(res.Exemplars), p.Exemplars, tr.Len())}
	if w := tr.DropWarning(); w != "" {
		parts = append(parts, w)
	}
	if p.CritPath {
		keep := make(map[int64]bool, len(res.Exemplars))
		for _, ex := range res.Exemplars {
			keep[ex.Job] = true
		}
		// The ring also holds cheap KJob summaries of recent non-retained jobs;
		// the tables cover the retained exemplars only.
		kept := &analyze.CritSummary{}
		for _, cp := range analyze.Crit(tr.Events()).Jobs {
			if keep[cp.Job] {
				kept.Jobs = append(kept.Jobs, cp)
			}
		}
		parts = append(parts, analyze.CritTable(kept).String(), analyze.WhereTable(kept, 0.99).String())
	}
	return strings.Join(parts, "\n"), nil
}
