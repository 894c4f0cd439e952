// Compression: the dynamic estimator in action.
//
// The 164.gzip-style compressor moves its entire input and output across
// the network, so Equation 1 only pays off when the link is fast. This
// example runs the same offloading-enabled binary on 802.11n and 802.11ac:
// the runtime's dynamic performance estimation declines to offload on the
// slow network (the starred bar of Figure 6) and offloads on the fast one.
//
//	go run ./examples/compression
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
		fmt.Fprintln(os.Stderr, "compression:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("takes no arguments, got %q", args)
	}
	w := workloads.ByName("164.gzip")

	fast := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, w.CostScale)
	slow := core.NewFramework(core.SlowNetwork).WithScale(workloads.Scale, w.CostScale)

	mod := w.Build()
	prof, err := fast.Profile(mod, w.ProfileIO())
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	cres, err := fast.Compile(mod, prof)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	local, err := fast.RunLocal(mod, w.EvalIO())
	if err != nil {
		return fmt.Errorf("local: %w", err)
	}

	for _, env := range []struct {
		name string
		fw   *core.Framework
	}{{"802.11n (slow)", slow}, {"802.11ac (fast)", fast}} {
		off, err := env.fw.RunOffloaded(cres, w.EvalIO(), offrt.Policy{})
		if err != nil {
			return fmt.Errorf("%s: %w", env.name, err)
		}
		verdict := "OFFLOADED"
		if !off.Offloaded() {
			verdict = "declined by the dynamic estimator (ran locally)"
		}
		fmt.Fprintf(stdout, "%-16s %v vs local %v (%.2fx) — %s\n",
			env.name, off.Time, local.Time, off.Speedup(local), verdict)
		for _, id := range off.TaskIDs() {
			st := off.PerTask[id]
			if st.Declines > 0 {
				fmt.Fprintf(stdout, "%-16s   estimator: %d declines — the %0.f MB transfer would cost more than the compute saves\n",
					"", st.Declines, float64(w.Paper.TrafficMB))
			}
		}
	}
	return nil
}
