// Command offloadbench regenerates the tables and figures of the paper's
// evaluation and runs the fleet-level bench experiments. Usage:
//
//	offloadbench -exp all
//	offloadbench -exp fleet -clients=64 -servers=4 -policy=est-aware
//	offloadbench -exp fleetscale -clients 1000000
//	offloadbench -exp tiers -edge-servers 8 -cloud-servers 2 -out /tmp/tiers8x2.json
//
// -exp takes a name from the experiments catalogue, or "all" for the
// paper's own tables and figures; offloadbench -help lists every name with
// a one-line description. An experiment that produces a machine-readable
// bench record writes it to -out (nothing is written without -out), and
// the write is refused while the record's floor fails. The committed
// BENCH_*.json records of the default configurations are golden files of
// go test ./internal/experiments, not -out targets. Fleet simulations run
// on one event engine, deterministic in the seed. For one program in depth
// (trace, metrics, critical path, profile) use offloadrun.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "offloadbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("offloadbench", flag.ExitOnError)
	p := experiments.DefaultParams()
	exp := fs.String("exp", "all", "experiment name, or all (see the list in -help)")
	out := fs.String("out", "", "write the experiment's machine-readable bench record (BENCH_*.json) to this path")
	fs.Int64Var(&p.Depth, "depth", p.Depth, "maximum chess difficulty for table1")
	fs.IntVar(&p.Clients, "clients", p.Clients, "with -exp fleet/fleetscale/migrate: number of concurrent mobile clients (0 = 64; fleetscale 1000000)")
	fs.IntVar(&p.Servers, "servers", p.Servers, "with -exp fleet/migrate: size of the server pool")
	fs.StringVar(&p.Policy, "policy", p.Policy, "with -exp fleet: dispatch policy (random, round-robin, least-loaded, est-aware) or all")
	fs.Uint64Var(&p.Seed, "seed", p.Seed, "with -exp fleet/tiers: simulation seed")
	fs.StringVar(&p.ServerFaults, "server-faults", p.ServerFaults, "with -exp chaos: server-fault spec (e.g. crash=0@300ms,slow=0@100ms-2sx3); runs the workloads under it with migration enabled")
	fs.IntVar(&p.MigrateSeeds, "migrate-seeds", p.MigrateSeeds, "with -exp migrate: number of benchmark seeds")
	fs.IntVar(&p.EdgeServers, "edge-servers", p.EdgeServers, "with -exp tiers: edge pool size (low-RTT, modest compute)")
	fs.IntVar(&p.CloudServers, "cloud-servers", p.CloudServers, "with -exp tiers: cloud pool size (behind the WAN, high compute)")
	fs.IntVar(&p.Exemplars, "exemplars", p.Exemplars, "with -exp fleet/fleetscale: retain complete span trees for the N slowest / shed / migrated / faulted jobs plus an N-sized seeded baseline (0 disables the tail sampler)")
	fs.BoolVar(&p.CritPath, "critpath", p.CritPath, "with -exp fleet -exemplars: print the per-job critical-path table and the where-the-tail-lives summary from the trace")
	common := cli.CommonFlags(fs)
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "Usage: offloadbench [flags]\n\nExperiments (-exp):\n")
		for _, e := range experiments.Catalogue {
			fmt.Fprintf(w, "  %-12s %s\n", e.Name, e.Desc)
		}
		fmt.Fprintf(w, "  %-12s %s\n\nFlags:\n", "all", "every paper table and figure, in the order above")
		fs.PrintDefaults()
	}
	fs.Parse(args) // ExitOnError: a bad flag or -help ends the process here
	selected, err := experiments.Select(*exp)
	if err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	stop, err := common.Start(stdout)
	if err != nil {
		return err
	}
	defer stop()

	for _, e := range selected {
		a, err := e.Run(p)
		if a != nil {
			fmt.Fprintln(stdout, a.Text)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if *out == "" {
			continue
		}
		if a.Record == nil {
			return fmt.Errorf("%s: -out: the experiment has no bench record", e.Name)
		}
		if err := experiments.WriteBench(*out, a.Record); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintf(stdout, "%s: bench record -> %s\n", e.Name, *out)
	}
	return nil
}
