// Command offloadbench regenerates the tables and figures of the paper's
// evaluation. Usage:
//
//	offloadbench -exp table1|table2|table3|table4|table5|fig6a|fig6b|fig7|fig8|all
//	offloadbench -exp fleet -clients=64 -servers=4 -policy=est-aware
//	offloadbench -exp fleetscale -clients 1000000 -shards 0
//	offloadbench -exp tiers -edge-servers 4 -cloud-servers 1
//
// Run offloadbench -help for the full mode catalogue with one-line
// descriptions. Table 1 accepts -depth to bound the most expensive
// chess difficulty. The fleet experiment compares dispatch policies
// over a shared server pool and writes its machine-readable record to
// -fleet-out. The fleetscale experiment benchmarks the sharded
// parallel engine (parity gate, events/sec floor cells, the
// million-client headline run, and adaptive-vs-static admission over a
// diurnal curve), writing -scale-out. The tiers experiment sweeps the
// mobile -> edge -> cloud hierarchy through all three placement modes
// and writes -tiers-out. -shards selects the engine everywhere fleet
// simulations run: -1 forces the sequential reference, 0 auto-sizes to
// the CPU count, n >= 1 pins n worker shards — results are
// bit-identical across all of them. -cpuprofile writes a pprof CPU
// profile of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/report"
	"repro/internal/workloads"
)

// expModes is the -exp catalogue the usage text renders: every mode with
// a one-line description, so discovering an experiment does not require
// reading the experiments package.
var expModes = []struct{ name, desc string }{
	{"table1", "execution-time comparison across workloads and networks (Table 1)"},
	{"table2", "offloaded-task coverage and per-task statistics (Table 2)"},
	{"table3", "traffic volume per workload (Table 3)"},
	{"table4", "server-side execution coverage (Table 4)"},
	{"table5", "energy consumption per workload (Table 5)"},
	{"fig6a", "execution-time breakdown, slow network (Figure 6a)"},
	{"fig6b", "execution-time breakdown, fast network (Figure 6b)"},
	{"fig7", "overhead component breakdown (Figure 7)"},
	{"fig8", "power timeline of a representative run (Figure 8)"},
	{"ablation", "optimization ablation grid (prefetch, compression, batching, remote I/O)"},
	{"crossarch", "mobile/server architecture cross product"},
	{"chaos", "fault-injection campaign; with -server-faults, server-fault equivalence"},
	{"fleet", "dispatch-policy comparison over a shared server pool (BENCH_fleet.json)"},
	{"fleetscale", "sharded parallel engine benchmark, million-client headline (BENCH_fleet_scale.json)"},
	{"migrate", "mid-offload migration vs fallback-only recovery (BENCH_migrate.json)"},
	{"tiers", "3-way edge/cloud placement vs static single-tier baselines (BENCH_tiers.json)"},
	{"all", "every paper table and figure (table1..fig8, ablation, crossarch)"},
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see the mode list in -help)")
	depth := flag.Int64("depth", 11, "maximum chess difficulty for table1")
	clients := flag.Int("clients", 64, "with -exp fleet/fleetscale/migrate: number of concurrent mobile clients (fleetscale defaults to 1000000)")
	servers := flag.Int("servers", 4, "with -exp fleet/migrate: size of the server pool")
	policy := flag.String("policy", "all", "with -exp fleet: dispatch policy (random, round-robin, least-loaded, est-aware) or all")
	seed := flag.Uint64("seed", 1, "with -exp fleet: simulation seed")
	shards := flag.Int("shards", 0, "fleet engine: -1 sequential reference, 0 one shard per CPU, n >= 1 that many shards (bit-identical results)")
	fleetOut := flag.String("fleet-out", "BENCH_fleet.json", "with -exp fleet: machine-readable sweep record path (empty to skip)")
	scaleOut := flag.String("scale-out", "BENCH_fleet_scale.json", "with -exp fleetscale: machine-readable bench record path (empty to skip)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path")
	serverFaults := flag.String("server-faults", "", "with -exp chaos: server-fault spec (e.g. crash=0@300ms,slow=0@100ms-2sx3); runs the workloads under it with migration enabled")
	migrateSeeds := flag.Int("migrate-seeds", 10, "with -exp migrate: number of benchmark seeds")
	migrateOut := flag.String("migrate-out", "BENCH_migrate.json", "with -exp migrate: machine-readable bench record path (empty to skip)")
	edgeServers := flag.Int("edge-servers", 4, "with -exp tiers: edge pool size (low-RTT, modest compute)")
	cloudServers := flag.Int("cloud-servers", 1, "with -exp tiers: cloud pool size (behind the WAN, high compute)")
	tiersOut := flag.String("tiers-out", "BENCH_tiers.json", "with -exp tiers: machine-readable bench record path (empty to skip)")
	observe := flag.String("w", "", "workload to deep-dive with -trace/-metrics instead of running -exp")
	traceFile := flag.String("trace", "", "with -w: write a Chrome trace_event JSON of the fast-network run")
	showMetrics := flag.Bool("metrics", false, "with -w: print the aggregated session metrics")
	showHist := flag.Bool("hist", false, "with -w: print the latency histogram snapshots (p50/p90/p99/max)")
	exemplars := flag.Int("exemplars", 0, "with -exp fleet/fleetscale: retain complete span trees for the N slowest / shed / migrated / faulted jobs plus an N-sized seeded baseline (0 disables the tail sampler)")
	critPath := flag.Bool("critpath", false, "with -w or -exp fleet: print the per-job critical-path table and the where-the-tail-lives summary from the trace")
	engineSpec := flag.String("engine", "fast", "execution engine: fast (pre-decoded) or ref (reference tree-walker)")
	bindStats := flag.Bool("bindstats", false, "print compilation-cache statistics (programs, hits, misses) after the experiments")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "Usage: offloadbench [flags]\n\nExperiment modes (-exp):\n")
		for _, m := range expModes {
			fmt.Fprintf(w, "  %-12s %s\n", m.name, m.desc)
		}
		fmt.Fprintf(w, "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "offloadbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "offloadbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	eng, err := interp.ParseEngine(*engineSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "offloadbench: -engine: %v\n", err)
		os.Exit(1)
	}
	core.DefaultEngine = eng
	if *bindStats {
		defer func() {
			s := core.DefaultCache.Stats()
			fmt.Printf("compilation cache: %d programs, %d hits, %d misses (hit rate %.0f%%)\n",
				s.Entries, s.Hits, s.Misses, 100*s.HitRate())
		}()
	}

	if *observe != "" || *traceFile != "" || *showMetrics || *showHist {
		if err := runObserved(*observe, *traceFile, *showMetrics, *showHist, *critPath, *exemplars); err != nil {
			fmt.Fprintf(os.Stderr, "offloadbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	run := func(id string) error {
		switch id {
		case "table1":
			fmt.Println(experiments.Table1(*depth))
		case "table2":
			fmt.Println(experiments.Table2())
		case "table3":
			t, err := experiments.Table3()
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "table4":
			t, err := experiments.Table4()
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "table5":
			fmt.Println(experiments.Table5())
		case "fig6a":
			t, _, err := experiments.Fig6a()
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "fig6b":
			t, _, err := experiments.Fig6b()
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "fig7":
			t, _, err := experiments.Fig7()
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "fig8":
			s, _, err := experiments.Fig8()
			if err != nil {
				return err
			}
			fmt.Println(s)
		case "ablation":
			t, _, err := experiments.Ablation()
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "crossarch":
			t, _, err := experiments.CrossArch()
			if err != nil {
				return err
			}
			fmt.Println(t)
		case "chaos":
			if *serverFaults != "" {
				plan, err := faults.ParseServer(*serverFaults)
				if err != nil {
					return err
				}
				cells, err := experiments.ServerChaosSpecSweep(plan)
				if err != nil {
					return err
				}
				fmt.Println(experiments.ServerChaosTable(cells))
				migrations, retries, fallbacks := 0, 0, 0
				for _, c := range cells {
					migrations += c.Migrations
					retries += c.CrashRetries
					fallbacks += c.Fallbacks
					if !c.Equal() {
						return fmt.Errorf("chaos: %s under %s diverged from its fault-free run", c.Workload, c.Plan)
					}
				}
				fmt.Printf("server chaos: %d migrations, %d crash retries, %d fallbacks across %d workloads\n",
					migrations, retries, fallbacks, len(cells))
				return nil
			}
			cells, err := experiments.ChaosSweep()
			if err != nil {
				return err
			}
			fmt.Println(experiments.ChaosTable(cells))
			for _, c := range cells {
				if !c.Equal() {
					return fmt.Errorf("chaos: %s under %s diverged from its fault-free run", c.Workload, c.Plan.String())
				}
			}
		case "migrate":
			bench, err := experiments.MigrateSweep(*migrateSeeds, *clients, *servers)
			if err != nil {
				return err
			}
			fmt.Println(experiments.MigrateTable(bench))
			if err := bench.CheckFloor(); err != nil {
				return err
			}
			if *migrateOut != "" {
				if err := experiments.WriteBench(*migrateOut, bench); err != nil {
					return err
				}
				fmt.Printf("migrate: %d seeds -> %s\n", bench.Seeds, *migrateOut)
			}
		case "fleet":
			var pols []fleet.Policy
			if *policy != "all" {
				p, err := fleet.ParsePolicy(*policy)
				if err != nil {
					return err
				}
				pols = append(pols, p)
			}
			results, err := experiments.FleetSweep([]int{*clients}, *servers, *seed, engineShards(*shards), pols...)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FleetTable(results))
			if *fleetOut != "" {
				if err := experiments.WriteBench(*fleetOut, results); err != nil {
					return err
				}
				fmt.Printf("fleet: %d cells -> %s\n", len(results), *fleetOut)
			}
			if *exemplars > 0 {
				if err := fleetExemplars(*clients, *servers, *seed, engineShards(*shards), *policy, *exemplars, *critPath); err != nil {
					return err
				}
			}
		case "tiers":
			bench, err := experiments.TierSweep(experiments.TierBenchLoads(), *edgeServers, *cloudServers, *seed)
			if err != nil {
				return err
			}
			fmt.Println(experiments.TierTable(bench))
			if err := bench.CheckFloor(); err != nil {
				return err
			}
			if *tiersOut != "" {
				if err := experiments.WriteBench(*tiersOut, bench); err != nil {
					return err
				}
				fmt.Printf("tiers: %d cells -> %s\n", len(bench.Cells), *tiersOut)
			}
		case "fleetscale":
			// -clients keeps its small fleet default; the headline scale
			// cell wants a million unless the user pinned a size.
			n := *clients
			explicit := false
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "clients" {
					explicit = true
				}
			})
			if !explicit {
				n = 1_000_000
			}
			bench, err := experiments.ScaleSweep(n, *shards, *exemplars)
			if err != nil {
				return err
			}
			fmt.Println(experiments.ScaleTable(bench))
			if err := bench.CheckFloor(); err != nil {
				return err
			}
			if *scaleOut != "" {
				if err := experiments.WriteBench(*scaleOut, bench); err != nil {
					return err
				}
				fmt.Printf("fleetscale: %d-core bench -> %s\n", bench.Cores, *scaleOut)
			}
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		return nil
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table1", "table2", "table3", "table4", "table5", "fig6a", "fig6b", "fig7", "fig8", "ablation", "crossarch"}
	}
	for _, id := range ids {
		if err := run(id); err != nil {
			fmt.Fprintf(os.Stderr, "offloadbench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

// engineShards maps the -shards flag onto fleet.Config.Shards: -1 picks
// the sequential reference engine (Shards 0), 0 sizes the sharded engine
// to the machine, and a positive count is passed through.
func engineShards(n int) int {
	switch {
	case n < 0:
		return 0
	case n == 0:
		return runtime.NumCPU()
	default:
		return n
	}
}

// fleetExemplars deep-dives one fleet cell with the tail sampler on:
// re-runs the chosen policy with k exemplars per retention category and a
// bounded tracer ring, reports the retained set, and with -critpath prints
// the per-exemplar critical-path decomposition and tail summary.
func fleetExemplars(clients, servers int, seed uint64, shards int, policy string, k int, critPath bool) error {
	pol := fleet.EstAware
	if policy != "all" {
		p, err := fleet.ParsePolicy(policy)
		if err != nil {
			return err
		}
		pol = p
	}
	cfg := fleet.DefaultConfig(clients, servers, pol)
	cfg.Seed = seed
	cfg.Shards = shards
	cfg.Exemplars = k
	tr := obs.NewTracer(0)
	cfg.Tracer = tr
	res, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("exemplars (%s): %d span trees retained (K=%d per category) in %d trace events\n",
		pol, len(res.Exemplars), k, tr.Len())
	if w := tr.DropWarning(); w != "" {
		fmt.Fprintln(os.Stderr, "offloadbench:", w)
	}
	if !critPath {
		return nil
	}
	keep := make(map[int64]bool, len(res.Exemplars))
	for _, ex := range res.Exemplars {
		keep[ex.Job] = true
	}
	// The ring also holds cheap KJob summaries of recent non-retained jobs;
	// the tables cover the retained exemplars only.
	cs := analyze.Crit(tr.Events())
	kept := &analyze.CritSummary{}
	for _, cp := range cs.Jobs {
		if keep[cp.Job] {
			kept.Jobs = append(kept.Jobs, cp)
		}
	}
	fmt.Println(analyze.CritTable(kept))
	fmt.Println(analyze.WhereTable(kept, 0.99))
	return nil
}

// runObserved evaluates one workload with the observability layer attached,
// writing the Chrome trace and/or printing the metrics summary.
func runObserved(name, traceFile string, showMetrics, showHist bool, critPath bool, exemplars int) error {
	if name == "" {
		return fmt.Errorf("-trace/-metrics/-hist need a workload: add -w <name>")
	}
	w := workloads.ByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var tracer *obs.Tracer
	if traceFile != "" || critPath {
		tracer = obs.NewTracer(0)
	}
	var metrics *obs.Metrics
	if showMetrics || showHist {
		metrics = obs.NewMetrics()
	}
	r, err := experiments.RunProgramObserved(w, tracer, metrics)
	if err != nil {
		return err
	}
	fmt.Printf("%s: local %v -> offloaded %v (%.2fx speedup)\n",
		w.Name, r.Local.Time, r.Fast.Time, r.Fast.Speedup(r.Local))
	if critPath && tracer != nil {
		cs := analyze.Crit(tracer.Events()).Top(exemplars)
		fmt.Println(analyze.CritTable(cs))
		fmt.Println(analyze.WhereTable(cs, 0.99))
	}
	if tracer != nil && traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := tracer.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s (load in chrome://tracing or ui.perfetto.dev)\n",
			tracer.Len(), traceFile)
	}
	if w := tracer.DropWarning(); w != "" {
		fmt.Fprintln(os.Stderr, "offloadbench:", w)
	}
	tracer.PublishDropped(metrics)
	if showMetrics {
		fmt.Println(report.MetricsTable(w.Name+" session metrics", metrics.Names(), metrics.Value))
	}
	if showHist {
		if hs := metrics.HistogramSummary(); hs != "" {
			fmt.Print(hs)
		} else {
			fmt.Println("(no histograms recorded)")
		}
	}
	return nil
}
