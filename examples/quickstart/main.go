// Quickstart: the paper's running example end to end.
//
// This example builds the Figure 3 chess game, profiles it on the mobile
// architecture, compiles it into the offloading-enabled mobile/server
// binary pair, and plays a game both locally and under the offload runtime
// on 802.11ac, printing the Table 1-style movement times and the speedup.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/offrt"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("takes no arguments, got %q", args)
	}
	fw := core.NewFramework(core.FastNetwork)
	fw.CostScale = workloads.ChessCostScale

	// The "front end" output: the chess game's IR module.
	mod := workloads.BuildChess(workloads.DefaultChessConfig())

	// 1. Profile with a training input (difficulty 7, one turn).
	prof, err := fw.Profile(mod, workloads.ChessInput(7, 1))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	fmt.Fprintln(stdout, "hot candidates on the profiling input:")
	fmt.Fprintln(stdout, prof)

	// 2. Compile: target selection, memory unification, partitioning,
	// server-specific optimization.
	cres, err := fw.Compile(mod, prof)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	fmt.Fprintln(stdout, cres.Summary())

	// 3. Play the same game (difficulty 10, two turns) locally and
	// offloaded.
	local, err := fw.RunLocal(mod, workloads.ChessInput(10, 2))
	if err != nil {
		return fmt.Errorf("local run: %w", err)
	}
	off, err := fw.RunOffloaded(cres, workloads.ChessInput(10, 2), offrt.Policy{})
	if err != nil {
		return fmt.Errorf("offloaded run: %w", err)
	}

	if local.Output != off.Output {
		return errors.New("outputs differ — the unified address space is broken")
	}
	fmt.Fprintf(stdout, "difficulty 10, smartphone only:  %v  (%8.0f mJ)\n", local.Time, local.EnergyMJ)
	fmt.Fprintf(stdout, "difficulty 10, with offloading:  %v  (%8.0f mJ)\n", off.Time, off.EnergyMJ)
	fmt.Fprintf(stdout, "speedup %.2fx, battery saving %.0f%%, traffic %.1f KB\n",
		off.Speedup(local), 100*(1-off.NormalizedEnergy(local)),
		float64(off.LinkStats.TotalBytes())/1024)
	fmt.Fprintln(stdout, "\ngame output (identical in both runs):")
	fmt.Fprint(stdout, off.Output)
	return nil
}
