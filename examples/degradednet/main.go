// Degradednet: the dynamic estimator surviving a failing network.
//
// Section 4 of the paper motivates run-time (rather than compile-time-only)
// offload decisions with "unfavorable situations such as slow network
// connection". This example runs the three-move chess game on a link that
// collapses to dial-up speeds after the first move: the first getAITurn
// offloads, the remaining ones are declined and execute locally, and the
// game still finishes with the right output.
//
//	go run ./examples/degradednet
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/offrt"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "degradednet:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("takes no arguments, got %q", args)
	}
	fw := core.NewFramework(core.FastNetwork)
	fw.CostScale = workloads.ChessCostScale
	mod := workloads.BuildChess(workloads.DefaultChessConfig())

	prof, err := fw.Profile(mod, workloads.ChessInput(7, 1))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	cres, err := fw.Compile(mod, prof)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}

	local, err := fw.RunLocal(mod, workloads.ChessInput(9, 3))
	if err != nil {
		return fmt.Errorf("local: %w", err)
	}

	// Healthy 802.11ac for the first second of simulated time, then a
	// 2 kbps crawl for the rest of the game.
	link := netsim.Fast80211AC()
	link.Phases = []netsim.Phase{
		{Until: simtime.Second, BandwidthBps: link.BandwidthBps},
		{Until: 1 << 62, BandwidthBps: 2_000},
	}
	fw.Link = link

	off, err := fw.RunOffloaded(cres, workloads.ChessInput(9, 3), offrt.Policy{})
	if err != nil {
		return fmt.Errorf("offload: %w", err)
	}
	if off.Output != local.Output {
		return errors.New("outputs diverged")
	}

	fmt.Fprintln(stdout, "three-move chess game on a network that collapses after 1s:")
	for _, id := range off.TaskIDs() {
		st := off.PerTask[id]
		fmt.Fprintf(stdout, "  task %d (getAITurn): %d move(s) offloaded, %d declined by the dynamic estimator\n",
			id, st.Offloads, st.Declines)
	}
	fmt.Fprintf(stdout, "  local-only time:   %v\n", local.Time)
	fmt.Fprintf(stdout, "  adaptive time:     %v (%.2fx)\n", off.Time, off.Speedup(local))
	fmt.Fprintln(stdout, "  output identical to the local run — the game survived the outage.")
	return nil
}
