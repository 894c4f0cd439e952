// Package compiler is the Native Offloader compiler driver (Figure 2): it
// chains target selection (Section 3.1), memory unification (Section 3.2),
// partitioning (Section 3.3) and server-specific optimization (Section 3.4)
// over one front-end module, producing an offloading-enabled binary pair.
package compiler

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/estimate"
	"repro/internal/filter"
	"repro/internal/ir"
	"repro/internal/ir/analysis"
	"repro/internal/ir/transform"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/simtime"
	"repro/internal/unify"
)

// Options configures a compilation.
type Options struct {
	// Mobile and Server are the two target architectures; Mobile's data
	// layout is the unification standard.
	Mobile *arch.Spec
	Server *arch.Spec
	// Est parameterizes the static performance estimator (Equation 1).
	Est estimate.Params
	// RemoteIO enables the Section 3.4 remote I/O manager (on by default
	// in Default()).
	RemoteIO bool
	// MinGain drops candidates whose predicted gain is below this
	// threshold: offloading a sub-millisecond task is never worth the
	// code-size and bookkeeping cost, even when Equation 1 is positive.
	MinGain simtime.PS
}

// Default returns the evaluation configuration: ARM32 mobile, x86-64
// server, remote I/O on, estimator with the observed performance ratio.
func Default(bandwidthBps int64) Options {
	mob, srv := arch.ARM32(), arch.X8664()
	return Options{
		Mobile:   mob,
		Server:   srv,
		Est:      estimate.Params{R: arch.PerformanceRatio(mob, srv), BandwidthBps: bandwidthBps},
		RemoteIO: true,
		MinGain:  50 * simtime.Millisecond,
	}
}

// TargetInfo describes one selected offload task: the Task the runtime's
// dynamic estimator prices, named by its function in the partitioned modules.
type TargetInfo struct {
	estimate.Task
	Display     string // paper-style name, e.g. "main_for.cond"
	IsLoop      bool
	Invocations int
	// Static estimation result.
	Est estimate.Estimate
}

// Candidate records one examined candidate and the selection outcome, for
// Table 3-style reporting.
type Candidate struct {
	Name        string
	Time        simtime.PS
	Invocations int
	MemBytes    int64
	Machine     bool   // filtered out as machine-specific
	Reason      string // why, when Machine
	Est         estimate.Estimate
	Selected    bool
}

// Result is the compiler's output.
type Result struct {
	Mobile *ir.Module
	Server *ir.Module

	Targets    []TargetInfo
	Candidates []Candidate

	// Table 4 statistics.
	OffloadedFuncs  int // functions reachable from targets (server side)
	TotalFuncs      int
	ReferencedGVs   int
	TotalGVs        int
	FptrUses        int
	RemovedFuncs    []string
	OptimizerReport *optimize.Report

	// FuncNames lists functions present in both binaries, for the
	// runtime's m2s/s2m function maps.
	FuncNames []string
}

// Compile runs the full pipeline over the front-end module m using the
// profiling report prof. m is not modified; the returned modules are
// independent clones.
func Compile(m *ir.Module, prof *profile.Report, opt Options) (*Result, error) {
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("compiler: input module: %w", err)
	}
	work := m.Clone("unified:" + m.Name)
	transform.Run(work) // standard cleanup before analysis

	res := &Result{}

	// ---- Target selection (Section 3.1) ----
	cg := analysis.BuildCallGraph(work)
	fres := filter.Classify(work, cg, filter.Options{RemoteIO: opt.RemoteIO})
	selected, err := selectTargets(work, cg, fres, prof, opt, res)
	if err != nil {
		return nil, err
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("compiler: no profitable offloading target in %s", m.Name)
	}

	// Outline loop targets into functions so both partitions can call them.
	var targetFuncs []*ir.Func
	var targets []partition.Target
	for i, sel := range selected {
		fn := sel.fn
		if sel.loop != nil {
			out, err := partition.OutlineLoop(work, sel.fn, sel.loop, sel.cfg)
			if err != nil && partition.DemoteEscapingValues(sel.fn, sel.loop) > 0 {
				// Values escaping the loop were demoted to stack slots
				// (reg2mem); they now travel through the UVA space like
				// any other local, so try again.
				out, err = partition.OutlineLoop(work, sel.fn, sel.loop, sel.cfg)
			}
			if err != nil {
				return nil, fmt.Errorf("compiler: outlining %s: %w", sel.info.Display, err)
			}
			fn = out
		}
		fn.TaskID = i + 1
		sel.info.TaskID = i + 1
		sel.info.Name = fn.Nam
		res.Targets = append(res.Targets, sel.info)
		targetFuncs = append(targetFuncs, fn)
		targets = append(targets, partition.Target{TaskID: i + 1, Fn: fn})
	}
	if err := ir.Verify(work); err != nil {
		return nil, fmt.Errorf("compiler: after outlining: %w", err)
	}

	// ---- Memory unification (Section 3.2) ----
	cg = analysis.BuildCallGraph(work) // outlining changed the graph
	gs := unify.Unify(work, cg, targetFuncs, opt.Mobile)
	res.ReferencedGVs = len(gs)
	res.TotalGVs = len(work.Globals)
	res.FptrUses = optimize.CountFptrUses(work)

	// ---- Partition (Section 3.3) ----
	mobile := work.Clone(m.Name + ":mobile")
	server := work.Clone(m.Name + ":server")

	mobileTargets := make([]partition.Target, len(targets))
	serverTargets := make([]partition.Target, len(targets))
	for i, t := range targets {
		mobileTargets[i] = partition.Target{TaskID: t.TaskID, Fn: mobile.Func(t.Fn.Nam)}
		serverTargets[i] = partition.Target{TaskID: t.TaskID, Fn: server.Func(t.Fn.Nam)}
	}
	partition.PartitionMobile(mobile, mobileTargets)
	removed, err := partition.PartitionServer(server, serverTargets)
	if err != nil {
		return nil, err
	}
	res.RemovedFuncs = removed

	// ---- Server-specific optimization (Section 3.4) ----
	res.OptimizerReport = optimize.Optimize(server)

	// Cleanup after partitioning: the gate diamonds and dispatch chains
	// leave trivially foldable code behind.
	transform.Run(mobile)
	transform.Run(server)

	// ---- Back-end lowering: the mobile layout is the standard ----
	ir.Lower(mobile, opt.Mobile, opt.Mobile)
	ir.Lower(server, opt.Server, opt.Mobile)

	if err := ir.Verify(mobile); err != nil {
		return nil, fmt.Errorf("compiler: mobile partition: %w", err)
	}
	if err := ir.Verify(server); err != nil {
		return nil, fmt.Errorf("compiler: server partition: %w", err)
	}

	res.Mobile = mobile
	res.Server = server

	// Table 4 statistics and the shared function-name list.
	defined := 0
	for _, f := range work.Funcs {
		if !f.IsExtern() {
			defined++
		}
	}
	res.TotalFuncs = defined
	serverCG := analysis.BuildCallGraph(server)
	var roots []*ir.Func
	for _, t := range serverTargets {
		if f := server.Func(t.Fn.Nam); f != nil {
			roots = append(roots, f)
		}
	}
	offloaded := 0
	for f := range serverCG.Reachable(roots...) {
		if !f.IsExtern() {
			offloaded++
		}
	}
	res.OffloadedFuncs = offloaded
	for _, f := range server.Funcs {
		if !f.IsExtern() && mobile.Func(f.Nam) != nil {
			res.FuncNames = append(res.FuncNames, f.Nam)
		}
	}
	sort.Strings(res.FuncNames)
	return res, nil
}

// selection bookkeeping.
type selection struct {
	fn   *ir.Func
	loop *analysis.Loop
	cfg  *analysis.CFG
	info TargetInfo
}

// selectTargets enumerates function and loop candidates, filters the
// machine-specific ones, estimates gains, and greedily picks profitable
// non-nested targets in decreasing gain order.
func selectTargets(m *ir.Module, cg *analysis.CallGraph, fres *filter.Result, prof *profile.Report, opt Options, res *Result) ([]*selection, error) {
	type cand struct {
		sel  selection
		gain simtime.PS
	}
	var cands []cand

	consider := func(name string, fn *ir.Func, loop *analysis.Loop, cfg *analysis.CFG, display string) {
		st := prof.Get(name)
		if st == nil || st.Invocations == 0 {
			return
		}
		c := Candidate{
			Name:        display,
			Time:        st.Time,
			Invocations: st.Invocations,
			MemBytes:    st.MemBytes,
		}
		var ms bool
		var why string
		if loop == nil {
			ms, why = fres.FuncMachineSpecific(fn)
		} else {
			ms, why = fres.LoopMachineSpecific(loop, filter.Options{RemoteIO: opt.RemoteIO})
		}
		if ms {
			c.Machine, c.Reason = true, why
			res.Candidates = append(res.Candidates, c)
			return
		}
		c.Est = opt.Est.Evaluate(st.Time, st.MemBytes, st.Invocations)
		res.Candidates = append(res.Candidates, c)
		if c.Est.Tg <= 0 || c.Est.Tg < opt.MinGain {
			return
		}
		inv := st.Invocations
		cands = append(cands, cand{
			sel: selection{
				fn:   fn,
				loop: loop,
				cfg:  cfg,
				info: TargetInfo{
					Task:        estimate.Task{TimePerInvocation: st.Time / simtime.PS(inv), MemBytes: st.MemBytes},
					Display:     display,
					IsLoop:      loop != nil,
					Invocations: inv,
					Est:         c.Est,
				},
			},
			gain: c.Est.Tg,
		})
	}

	for _, f := range m.Funcs {
		if f.IsExtern() || f.Nam == "main" {
			continue
		}
		consider(f.Nam, f, nil, nil, f.Nam)
	}
	for _, f := range m.Funcs {
		if f.IsExtern() {
			continue
		}
		cfg, err := analysis.BuildCFG(f)
		if err != nil {
			return nil, err
		}
		forest := analysis.FindLoops(cfg, analysis.Dominators(cfg))
		for _, l := range forest.Loops {
			consider(f.Nam+"/"+l.Name(), f, l, cfg, f.Nam+"_"+l.Header.Nam)
		}
	}

	sort.SliceStable(cands, func(i, j int) bool {
		gi, gj := cands[i].gain, cands[j].gain
		// Within 2% the gains are estimation noise; prefer the whole
		// function over an inner loop (cleaner interface, same benefit) —
		// the paper offloads getAITurn rather than for_i for the same
		// reason.
		hi := gi
		if gj > hi {
			hi = gj
		}
		if diff := gi - gj; diff < hi/50 && diff > -hi/50 {
			li, lj := cands[i].sel.loop != nil, cands[j].sel.loop != nil
			if li != lj {
				return !li
			}
			return cands[i].sel.info.Display < cands[j].sel.info.Display
		}
		return gi > gj
	})

	var picked []*selection
	covered := make(map[*ir.Func]bool) // functions already inside a picked target
	for i := range cands {
		c := &cands[i]
		if covered[c.sel.fn] {
			continue // nested in (or equal to) an already-picked target
		}
		if c.sel.loop == nil {
			// A picked function must not contain a previously picked
			// target; the greedy order (higher gain first) makes the
			// outer/earlier one win, like getAITurn over for_i.
			reach := cg.Reachable(c.sel.fn)
			conflict := false
			for _, p := range picked {
				if reach[p.fn] {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			for f := range reach {
				covered[f] = true
			}
		} else {
			// Loop targets conflict with other loops of the same function
			// when nested; mark callees reached from the loop.
			nested := false
			for _, p := range picked {
				if p.fn == c.sel.fn && p.loop != nil && loopsOverlap(p.loop, c.sel.loop) {
					nested = true
					break
				}
			}
			if nested {
				continue
			}
			for f := range loopCallees(cg, c.sel.loop) {
				covered[f] = true
			}
		}
		// Mark the selected candidate in the report.
		for j := range res.Candidates {
			if res.Candidates[j].Name == c.sel.info.Display {
				res.Candidates[j].Selected = true
			}
		}
		picked = append(picked, &c.sel)
	}
	return picked, nil
}

func loopsOverlap(a, b *analysis.Loop) bool {
	for blk := range a.Blocks {
		if b.Blocks[blk] {
			return true
		}
	}
	return false
}

func loopCallees(cg *analysis.CallGraph, l *analysis.Loop) map[*ir.Func]bool {
	out := make(map[*ir.Func]bool)
	for b := range l.Blocks {
		for _, in := range b.Instrs {
			if call, ok := in.(*ir.Call); ok && !call.Callee.IsExtern() {
				for f := range cg.Reachable(call.Callee) {
					out[f] = true
				}
			}
		}
	}
	return out
}

// Summary renders a human-readable compile report.
func (r *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "targets (%d):\n", len(r.Targets))
	for _, t := range r.Targets {
		fmt.Fprintf(&sb, "  task %d: %-24s gain %v (Tc %v)\n", t.TaskID, t.Display, t.Est.Tg, t.Est.Tc)
	}
	fmt.Fprintf(&sb, "functions: %d/%d offloaded; globals: %d/%d referenced; fptr uses: %d\n",
		r.OffloadedFuncs, r.TotalFuncs, r.ReferencedGVs, r.TotalGVs, r.FptrUses)
	fmt.Fprintf(&sb, "server: %d remote I/O sites (%d inputs), %d mapped fptr sites, %d unused funcs removed\n",
		r.OptimizerReport.RemoteIOSites, r.OptimizerReport.RemoteInputSites,
		r.OptimizerReport.MappedFptrSites, len(r.RemovedFuncs))
	return sb.String()
}
