package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/offrt"
	"repro/internal/report"
	"repro/internal/workloads"
)

// AblationResult quantifies one design choice of the system.
type AblationResult struct {
	Name     string
	Baseline float64 // seconds (or the metric named in Unit)
	Ablated  float64
	Unit     string
	Note     string
}

// Ablation measures the paper's design choices by turning them off one at a
// time:
//
//   - initialization-time prefetch vs. pure copy-on-demand paging,
//   - server->mobile compression of the dirty-page write-back,
//   - the dynamic performance estimation gate (Section 4) on a slow network,
//   - the remote I/O optimization (Section 3.4), without which the function
//     filter rejects every hot region that prints.
//
// Like Sweep, the study runs once per process and is cached: every row is
// deterministic, and -exp all, the row tests and the paper golden all read
// the same one.
func Ablation() (*report.Table, []AblationResult, error) {
	ablationOnce.Do(func() { ablationTab, ablationRows, ablationErr = ablate() })
	return ablationTab, ablationRows, ablationErr
}

var (
	ablationOnce sync.Once
	ablationTab  *report.Table
	ablationRows []AblationResult
	ablationErr  error
)

func ablate() (*report.Table, []AblationResult, error) {
	var out []AblationResult

	// Prefetch and compression ablate on the suite's most traffic-heavy
	// program (lbm ships its whole grid both ways).
	w := workloads.ByName("470.lbm")
	fw := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, w.CostScale)
	cres, err := fw.Prepare(w.Build(), w.ProfileIO())
	if err != nil {
		return nil, nil, err
	}
	run := func(pol offrt.Policy) (*core.OffloadResult, error) {
		return fw.RunOffloaded(cres, w.EvalIO(), pol)
	}

	base, err := run(offrt.Policy{ForceOffload: true})
	if err != nil {
		return nil, nil, err
	}
	noPrefetch, err := run(offrt.Policy{ForceOffload: true, NoPrefetch: true})
	if err != nil {
		return nil, nil, err
	}
	out = append(out, AblationResult{
		Name:     "prefetch -> pure copy-on-demand",
		Baseline: base.Time.Seconds(),
		Ablated:  noPrefetch.Time.Seconds(),
		Unit:     "s",
		Note:     fmt.Sprintf("%d faults vs %d: per-page round trips replace one batched message", pageFaults(noPrefetch), pageFaults(base)),
	})

	noComp, err := run(offrt.Policy{ForceOffload: true, NoCompress: true})
	if err != nil {
		return nil, nil, err
	}
	out = append(out, AblationResult{
		Name:     "server->mobile compression off",
		Baseline: float64(base.LinkStats.BytesToMobile) / 1e6,
		Ablated:  float64(noComp.LinkStats.BytesToMobile) / 1e6,
		Unit:     "MB to mobile",
		Note:     "finalization write-back travels uncompressed",
	})

	// The dynamic gate ablates on gzip over 802.11n: forcing the offload
	// the estimator declines makes the program slower than local.
	gz := workloads.ByName("164.gzip")
	// Compile under favourable (fast-network) assumptions, as the paper's
	// compiler does; only the runtime's dynamic estimation sees 802.11n.
	gzFast := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, gz.CostScale)
	slow := core.NewFramework(core.SlowNetwork).WithScale(workloads.Scale, gz.CostScale)
	gzC, err := gzFast.Prepare(gz.Build(), gz.ProfileIO())
	if err != nil {
		return nil, nil, err
	}
	// The paper motivates the gate with "unexpected slow network
	// environments": degrade the 802.11n link to a third of its goodput.
	slow.Link = slow.Link.Scaled(3)
	gated, err := slow.RunOffloaded(gzC, gz.EvalIO(), offrt.Policy{})
	if err != nil {
		return nil, nil, err
	}
	forced, err := slow.RunOffloaded(gzC, gz.EvalIO(), offrt.Policy{ForceOffload: true})
	if err != nil {
		return nil, nil, err
	}
	out = append(out, AblationResult{
		Name:     "dynamic gate off (gzip, congested 802.11n)",
		Baseline: gated.Time.Seconds(),
		Ablated:  forced.Time.Seconds(),
		Unit:     "s",
		Note:     "the gate's local fallback avoids a network-bound offload",
	})

	// Remote I/O off: gobmk's hot region reads play-record files, so
	// without the remote I/O manager the filter rejects gtp_main_loop and
	// everything that calls it (Section 3.4: "the function filter excludes
	// most of the IR codes from offloading targets"). The best surviving
	// partition is the inner board loop, which must be offloaded once per
	// command — three orders of magnitude more communication.
	gb := workloads.ByName("445.gobmk")
	fwRIO := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, gb.CostScale)
	fwNo := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, gb.CostScale)
	fwNo.RemoteIO = false
	gbMod := gb.Build()
	withC, err := fwRIO.Prepare(gbMod, gb.ProfileIO())
	if err != nil {
		return nil, nil, err
	}
	withRun, err := fwRIO.RunOffloaded(withC, gb.EvalIO(), offrt.Policy{})
	if err != nil {
		return nil, nil, err
	}
	rio := AblationResult{
		Name:     "remote I/O optimization off (gobmk)",
		Baseline: withRun.Time.Seconds(),
		Unit:     "s",
	}
	// Same module, same profiling input: the profile is the one fwRIO saw,
	// so an error here is the compiler finding no target.
	noC, err := fwNo.Prepare(gbMod, gb.ProfileIO())
	if err != nil {
		// Depending on calibration the filter may leave nothing at all.
		rio.Ablated = 0
		rio.Note = "no target survives the filter: " + err.Error()
	} else {
		noRun, err := fwNo.RunOffloaded(noC, gb.EvalIO(), offrt.Policy{})
		if err != nil {
			return nil, nil, err
		}
		rio.Ablated = noRun.Time.Seconds()
		rio.Note = fmt.Sprintf("only the inner loop survives the filter: %d offload sessions instead of 1",
			offloads(noRun))
	}
	out = append(out, rio)

	// Output batching (Section 4) ablates on sphinx3, which logs a
	// hypothesis line per frame from the offloaded loop.
	sp := workloads.ByName("482.sphinx3")
	fwSp := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, sp.CostScale)
	spC, err := fwSp.Prepare(sp.Build(), sp.ProfileIO())
	if err != nil {
		return nil, nil, err
	}
	perCall, err := fwSp.RunOffloaded(spC, sp.EvalIO(), offrt.Policy{ForceOffload: true})
	if err != nil {
		return nil, nil, err
	}
	batched, err := fwSp.RunOffloaded(spC, sp.EvalIO(), offrt.Policy{ForceOffload: true, BatchOutput: true})
	if err != nil {
		return nil, nil, err
	}
	if batched.Output != perCall.Output {
		return nil, nil, fmt.Errorf("output batching changed program output")
	}
	out = append(out, AblationResult{
		Name:     "output batching off (sphinx3)",
		Baseline: float64(batched.LinkStats.MsgsToMobile),
		Ablated:  float64(perCall.LinkStats.MsgsToMobile),
		Unit:     "messages to mobile",
		Note: fmt.Sprintf("batching cuts remote-I/O time %.2fs -> %.2fs",
			perCall.Comp[interp.CompRemoteIO].Seconds(), batched.Comp[interp.CompRemoteIO].Seconds()),
	})

	t := report.New("Ablations: the system's design choices, one at a time",
		"Design choice", "With", "Without", "Unit", "Effect")
	for _, a := range out {
		t.Add(a.Name, a.Baseline, a.Ablated, a.Unit, a.Note)
	}
	return t, out, nil
}

func offloads(r *core.OffloadResult) int {
	n := 0
	for _, st := range r.PerTask {
		n += st.Offloads
	}
	return n
}

func pageFaults(r *core.OffloadResult) int {
	n := 0
	for _, st := range r.PerTask {
		n += st.Faults
	}
	return n
}
