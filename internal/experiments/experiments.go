// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) from the reproduction's own machinery. Each
// experiment returns a rendered report.Table (or trace text) plus the
// structured numbers, so both the offloadbench CLI and the Go benchmarks
// print the same artifacts.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/interp"
	"repro/internal/offrt"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/survey"
	"repro/internal/workloads"
)

// ProgramResult bundles one workload's full evaluation: compile statistics
// and the three executions (local, slow network, fast network).
type ProgramResult struct {
	W       *workloads.Workload
	Compile *compiler.Result
	Local   *core.LocalResult
	Slow    *core.OffloadResult
	Fast    *core.OffloadResult
}

// IdealNorm returns the ideal-offloading normalized time (pure compute of
// the fast run over local time).
func (p *ProgramResult) IdealNorm() float64 {
	if p.Local.Time == 0 {
		return 0
	}
	return float64(p.Fast.IdealTime()) / float64(p.Local.Time)
}

var (
	sweepOnce sync.Once
	sweepRes  []*ProgramResult
	sweepErr  error
)

// Sweep evaluates all 17 programs once per process and caches the results;
// Table 4 and Figures 6-8 all read from the same sweep, like the paper's
// single evaluation campaign.
func Sweep() ([]*ProgramResult, error) {
	sweepOnce.Do(func() {
		for _, w := range workloads.All() {
			r, err := RunProgram(w, nil)
			if err != nil {
				sweepErr = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			sweepRes = append(sweepRes, r)
		}
	})
	return sweepRes, sweepErr
}

// RunProgram evaluates one workload end to end: profile and compile once,
// then run locally and offloaded on both networks. configure, when non-nil,
// adjusts the fast-network framework — the run the paper's headline
// numbers come from — before anything executes: tracer, metrics, fault
// plan, tier topology, guest sampling. The slow-network run keeps the
// classic setup for comparison. Graceful degradation is asserted either
// way: a fast run whose output diverges from the local baseline is an
// error, not a result.
func RunProgram(w *workloads.Workload, configure func(fast *core.Framework)) (*ProgramResult, error) {
	fast := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, w.CostScale)
	slow := core.NewFramework(core.SlowNetwork).WithScale(workloads.Scale, w.CostScale)
	if configure != nil {
		configure(fast)
	}

	mod := w.Build()
	// One compilation serves both networks (the binary is the same; only
	// the runtime's dynamic estimation differs).
	cres, err := fast.Prepare(mod, w.ProfileIO())
	if err != nil {
		return nil, err
	}
	local, err := fast.RunLocal(mod, w.EvalIO())
	if err != nil {
		return nil, fmt.Errorf("local: %w", err)
	}
	offFast, err := fast.RunOffloaded(cres, w.EvalIO(), offrt.Policy{})
	if err != nil {
		return nil, fmt.Errorf("fast offload: %w", err)
	}
	offSlow, err := slow.RunOffloaded(cres, w.EvalIO(), offrt.Policy{})
	if err != nil {
		return nil, fmt.Errorf("slow offload: %w", err)
	}
	if offFast.Output != local.Output {
		return nil, fmt.Errorf("fast offload output diverged from local run")
	}
	return &ProgramResult{W: w, Compile: cres, Local: local, Slow: offSlow, Fast: offFast}, nil
}

// Table1 reproduces the chess movement-time comparison across difficulty
// levels 7-11 on the mobile and server architectures.
func Table1(maxDepth int64) *report.Table {
	t := report.New("Table 1: chess movement computation time",
		"Difficulty", "Desktop (s)", "Smartphone (s)", "Gap (x)")
	for depth := int64(7); depth <= maxDepth; depth++ {
		mobile := chessMoveTime(core.NewFramework(core.FastNetwork), depth, true)
		desktop := chessMoveTime(core.NewFramework(core.FastNetwork), depth, false)
		t.Add(depth, desktop.Seconds(), mobile.Seconds(),
			float64(mobile)/float64(desktop))
	}
	t.Note("paper: gap 5.36x-5.89x across levels 7-11")
	return t
}

// chessMoveTime measures one getAITurn computation at the given depth.
func chessMoveTime(fw *core.Framework, depth int64, onMobile bool) simtime.PS {
	fw.CostScale = workloads.ChessCostScale
	if !onMobile {
		fw.Mobile = fw.Server // run the "local" flow on the desktop spec
	}
	mod := workloads.BuildChess(workloads.DefaultChessConfig())
	io := workloads.ChessInput(depth, 1)
	res, err := fw.RunLocal(mod, io)
	if err != nil {
		panic(fmt.Sprintf("table1: %v", err))
	}
	return res.Time
}

// Table2 renders the Android application study.
func Table2() *report.Table {
	t := report.New("Table 2: native code in top 20 open source Android apps",
		"Application", "Version", "Description", "C/C++ LoC", "Total LoC", "Ratio(LoC)%", "Exec Time %")
	for _, a := range survey.Table2() {
		t.Add(a.Name, a.Version, a.Description, a.NativeLoC, a.TotalLoC, a.NativeRatio(), a.ExecPct)
	}
	nh, th := survey.Table2Claim()
	t.Note("%d/20 apps are >50%% native LoC; %d/20 spend >20%% of time in native code (paper: ~one third)", nh, th)
	return t
}

// Table3 reproduces the profiling + static estimation example for the chess
// game, with the paper's assumed parameters (R=5, BW=80 Mbps).
func Table3() (*report.Table, error) {
	fw := core.NewFramework(core.FastNetwork)
	fw.CostScale = workloads.ChessCostScale
	mod := workloads.BuildChess(workloads.DefaultChessConfig())
	prof, err := fw.Profile(mod, workloads.ChessInput(8, 3))
	if err != nil {
		return nil, err
	}
	// The paper's worked example assumes R=5 rather than the pair's
	// measured ratio (arch.PerformanceRatio), and no round-trip term:
	// paper data, so the table reproduces the paper's arithmetic.
	res, err := compiler.Compile(mod, prof, compiler.Default(estimate.Params{R: 5, BandwidthBps: 80_000_000}))
	if err != nil {
		return nil, err
	}
	t := CandidateTable("Table 3: chess profiling and performance estimation (R=5, BW=80Mbps)", res.Candidates, true)
	t.Note("paper selects getAITurn and for_i; offloads getAITurn")
	return t, nil
}

// CandidateTable renders the compiler's Equation-1 verdict on every
// offload candidate. detail is the Table 3 form: it adds the Tideal and Tc
// columns and spells the verdicts out for a reader without the paper's
// vocabulary; without it the table is the compact one offloadc prints
// between its profile report and its summary.
func CandidateTable(title string, cands []compiler.Candidate, detail bool) *report.Table {
	headers := []string{"Candidate", "Exec(s)", "Inv", "Mem(MB)"}
	machine, nested := "", "profitable (nested)"
	if detail {
		headers = append(headers, "Tideal(s)", "Tc(s)")
		machine, nested = "machine-specific: ", "profitable (nested in selection)"
	}
	t := report.New(title, append(headers, "Tg(s)", "Verdict")...)
	for _, c := range cands {
		verdict := "rejected"
		switch {
		case c.Machine:
			verdict = machine + c.Reason
		case c.Selected:
			verdict = "SELECTED"
		case c.Est.Tg > 0:
			verdict = nested
		}
		row := []interface{}{c.Name, c.Time.Seconds(), c.Invocations, float64(c.MemBytes) / 1e6}
		if detail {
			row = append(row, c.Est.Tideal.Seconds(), c.Est.Tc.Seconds())
		}
		t.Add(append(row, c.Est.Tg.Seconds(), verdict)...)
	}
	return t
}

// Table4 reproduces the per-program offload statistics.
func Table4() (*report.Table, error) {
	rs, err := Sweep()
	if err != nil {
		return nil, err
	}
	t := report.New("Table 4: details of offloaded programs",
		"Program", "Exec(s)", "Off.Fn", "Ref.GV", "Fptr", "Target", "Cover%", "Inv", "Traf(MB)",
		"paperExec", "paperCov%", "paperInv", "paperTraf")
	for _, r := range rs {
		inv, traffic := invocationsAndTraffic(r.Fast)
		cov := r.Coverage() * 100
		primary := r.Compile.Targets[0]
		t.Add(r.W.Name, r.Local.Time.Seconds(),
			fmt.Sprintf("%d/%d", r.Compile.OffloadedFuncs, r.Compile.TotalFuncs),
			fmt.Sprintf("%d/%d", r.Compile.ReferencedGVs, r.Compile.TotalGVs),
			r.Compile.FptrUses,
			primary.Display, cov, inv, traffic,
			r.W.Paper.ExecTimeSec, r.W.Paper.CoveragePct, r.W.Paper.Invocations, r.W.Paper.TrafficMB)
	}
	t.Note("traffic re-scaled to paper units (x%d); coverage from offloaded compute share", workloads.Scale)
	return t, nil
}

// Coverage returns the fraction of local execution time covered by the
// offloaded tasks: the server compute time scaled back to mobile speed, by
// the R the targets were selected with, over the local run time (Table 4
// "Cover.").
func (p *ProgramResult) Coverage() float64 {
	if p.Local.Time == 0 {
		return 0
	}
	taskLocal := float64(p.Fast.ServerCompute) * p.Compile.Est.R
	cov := taskLocal / float64(p.Local.Time)
	if cov > 1 {
		cov = 1
	}
	return cov
}

// invocationsAndTraffic sums offload counts and converts per-invocation
// traffic back to paper-scale megabytes.
func invocationsAndTraffic(off *core.OffloadResult) (int, float64) {
	inv := 0
	var bytes int64
	for _, st := range off.PerTask {
		inv += st.Offloads
		bytes += st.TrafficBytes
	}
	if inv == 0 {
		return 0, 0
	}
	perInv := float64(bytes) / float64(inv)
	return inv, perInv * float64(workloads.Scale) / 1e6
}

// ProfileTable renders the stack profiles' top functions, mobile and server
// side by side — the deterministic "top functions by self/cumulative
// simulated time" companion to the folded flamegraph output. limit <= 0
// renders everything.
func ProfileTable(mobile, server *interp.Sampler, limit int) *report.Table {
	t := report.New("Guest profile: top functions by self time",
		"machine", "function", "self_ms", "cum_ms", "self%")
	add := func(name string, s *interp.Sampler) {
		total := s.Total()
		rows := s.TopFuncs()
		if limit > 0 && len(rows) > limit {
			rows = rows[:limit]
		}
		for _, f := range rows {
			share := 0.0
			if total > 0 {
				share = 100 * float64(f.SelfPS) / float64(total)
			}
			t.Add(name, f.Name, simtime.PS(f.SelfPS).Millis(), simtime.PS(f.CumPS).Millis(),
				fmt.Sprintf("%.1f%%", share))
		}
	}
	add("mobile", mobile)
	add("server", server)
	t.Note("exact simulated time, charged at every call, return and extern; no.accept is the server's wait for a request")
	return t
}

// Table5 renders the related-work comparison.
func Table5() *report.Table {
	t := report.New("Table 5: comparison of computation offload systems",
		"System", "Fully-Automatic", "Decision", "Requires VM", "Language", "Target Complexity")
	for _, s := range survey.Table5() {
		auto := "Yes"
		if !s.FullyAutomatic {
			auto = "No (" + s.Manual + ")"
		}
		vm := "No"
		if s.RequiresVM {
			vm = "Yes"
		}
		t.Add(s.Name, auto, s.Decision, vm, s.Language, s.Complexity)
	}
	t.Note("Native Offloader is the only fully-automatic, dynamic, VM-free system for complex C programs")
	return t
}
