// Genesearch: a near-ideal offload.
//
// The 456.hmmer-style gene-sequence search takes only small initialized
// parameters as live-in data: its working state materializes on the server
// as zero-fill pages, so almost nothing crosses the network and the speedup
// approaches the raw platform ratio (Section 5.1 singles hmmer out for
// exactly this).
//
//	go run ./examples/genesearch
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/offrt"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "genesearch:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("takes no arguments, got %q", args)
	}
	w := workloads.ByName("456.hmmer")
	fw := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, w.CostScale)

	mod := w.Build()
	prof, err := fw.Profile(mod, w.ProfileIO())
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	cres, err := fw.Compile(mod, prof)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	local, err := fw.RunLocal(mod, w.EvalIO())
	if err != nil {
		return fmt.Errorf("local: %w", err)
	}
	off, err := fw.RunOffloaded(cres, w.EvalIO(), offrt.Policy{})
	if err != nil {
		return fmt.Errorf("offload: %w", err)
	}

	fmt.Fprintf(stdout, "gene sequence search (%s)\n", w.Desc)
	fmt.Fprintf(stdout, "  local:     %v\n", local.Time)
	fmt.Fprintf(stdout, "  offloaded: %v (speedup %.2fx)\n", off.Time, off.Speedup(local))
	for _, id := range off.TaskIDs() {
		st := off.PerTask[id]
		fmt.Fprintf(stdout, "  task %d moved only %.1f KB across the network (%d prefetched pages, %d faults)\n",
			id, float64(st.TrafficBytes)/1024, st.PrefetchPgs, st.Faults)
	}
	fmt.Fprintf(stdout, "  ideal (zero-overhead) time: %v — the offloaded run is within %.1f%% of it\n",
		off.IdealTime(), 100*(float64(off.Time)/float64(off.IdealTime())-1))
	return nil
}
