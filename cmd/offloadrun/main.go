// Command offloadrun executes one workload locally and under the offload
// runtime on both network environments, printing the Figure 6/7-style
// summary for that single program.
//
// Usage:
//
//	offloadrun -w 445.gobmk
//	offloadrun -w chess -depth 9 -turns 2
//	offloadrun -w 164.gzip -faults "drop=0.2,outage=900ms-20s,seed=6"
//
// The gate is the paper's Section 4 one: Equation 1 re-priced against
// the live link, offloading to this run's one server or not at all.
// Placement over an edge/cloud hierarchy is the fleet's business
// (offloadbench -exp tiers). The instrumentation flags (-trace,
// -metrics, -profile, -breakdown, -critpath) and the -faults and
// -server-faults plans all act on the same one offloaded run and
// compose freely.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/offrt"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// observability carries the run's stdout, the optional
// -trace/-metrics/-profile/-breakdown instrumentation and the fault
// plans through a run and writes/prints the artifacts at the end.
type observability struct {
	out          io.Writer // the run's stdout
	traceFile    string
	profileFile  string
	breakdown    bool
	critPath     bool
	exemplars    int
	metrics      bool
	migrate      bool
	tracer       *obs.Tracer
	faults       *faults.Plan
	serverFaults *faults.ServerPlan
	// off is the offloaded run the reports describe, kept for -metrics.
	off *core.OffloadResult
}

// attach threads the instrumentation and fault plans into a framework.
func (o *observability) attach(fw *core.Framework) {
	fw.Tracer = o.tracer
	fw.Faults = o.faults
	fw.ServerFaults = o.serverFaults
	fw.Migrate = o.migrate
	fw.ProfileStacks = o.profileFile != ""
}

// reportRun prints/writes the per-run analysis artifacts for the offloaded
// execution the flags asked about: the folded flamegraph profile + top
// functions (-profile) and the Figure 6/7-shaped breakdown (-breakdown).
func (o *observability) reportRun(off *core.OffloadResult, model energy.PowerModel) error {
	o.off = off
	if o.profileFile != "" && off.MobileProf != nil {
		f, err := os.Create(o.profileFile)
		if err == nil {
			err = off.MobileProf.WriteFolded(f, "mobile")
			if err == nil {
				err = off.ServerProf.WriteFolded(f, "server")
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		fmt.Fprintf(o.out, "profile: %s (folded stacks; feed to flamegraph.pl or speedscope)\n", o.profileFile)
		fmt.Fprintf(o.out, "  mobile: %v profiled; server: %v profiled\n",
			simtime.PS(off.MobileProf.Total()), simtime.PS(off.ServerProf.Total()))
		fmt.Fprintln(o.out, experiments.ProfileTable(off.MobileProf, off.ServerProf, 15))
	}
	if o.breakdown && o.tracer != nil {
		fmt.Fprintln(o.out, analyze.TimeTable(analyze.Breakdown(o.tracer.Events())))
		fmt.Fprintln(o.out, analyze.RadioTable(off.Recorder, model))
	}
	if o.critPath && o.tracer != nil {
		cs := analyze.Crit(o.tracer.Events()).Top(o.exemplars)
		fmt.Fprintln(o.out, analyze.CritTable(cs))
		fmt.Fprintln(o.out, analyze.WhereTable(cs, 0.99))
	}
	return nil
}

// finish writes the Chrome trace file and prints the -metrics tables: the
// offloaded run's counters, then its latency populations replayed from the
// trace.
func (o *observability) finish() error {
	if w := o.tracer.DropWarning(); w != "" {
		fmt.Fprintln(os.Stderr, "offloadrun:", w)
	}
	if o.tracer != nil && o.traceFile != "" {
		f, err := os.Create(o.traceFile)
		if err == nil {
			err = o.tracer.WriteChrome(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(o.out, "trace: %d events -> %s (load in chrome://tracing or ui.perfetto.dev)\n",
			o.tracer.Len(), o.traceFile)
	}
	if o.metrics && o.off != nil {
		fmt.Fprintln(o.out, counterTable(o.off, o.tracer.Dropped()))
		fmt.Fprintln(o.out, analyze.LatencyTable(analyze.ReplayLatencies(o.tracer.Events())))
	}
	return nil
}

// counterTable lists an offloaded run's counters by dotted name, sorted:
// link traffic, session totals, injected faults, each task's numbers, and
// the trace ring's drop count when it dropped any.
func counterTable(off *core.OffloadResult, dropped int64) *report.Table {
	type counter struct {
		name  string
		value int64
	}
	st := off.Stats
	cs := []counter{
		{"link.msgs_to_server", int64(off.LinkStats.MsgsToServer)},
		{"link.msgs_to_mobile", int64(off.LinkStats.MsgsToMobile)},
		{"link.bytes_to_server", off.LinkStats.BytesToServer},
		{"link.bytes_to_mobile", off.LinkStats.BytesToMobile},
		{"link.comm_time_ps", int64(off.LinkStats.CommTimeMobile)},
		{"session.offloads", int64(st.Offloads)},
		{"session.declines", int64(st.Declines)},
		{"session.faults", int64(st.Faults)},
		{"session.dirty_pages", int64(st.DirtyPages)},
		{"session.prefetch_pages", int64(st.PrefetchPages)},
		{"session.writeback_raw_bytes", st.RawBytesToMobile},
		{"session.writeback_wire_bytes", st.WriteBackWireBytes},
		{"session.retries", int64(st.Retries)},
		{"session.aborts", int64(st.Aborts)},
		{"session.fallbacks", int64(st.Fallbacks)},
		{"session.e2e_latency_ps", int64(st.E2ELatency)},
		{"session.migrations", int64(st.Migrations)},
		{"session.migrated_pages", int64(st.MigratedPages)},
		{"session.migrated_bytes", st.MigratedBytes},
		{"session.crash_retries", int64(st.CrashRetries)},
		{"faults.injected", off.FaultStats.Total()},
	}
	for id, ts := range off.PerTask {
		p := fmt.Sprintf("task.%d.", id)
		cs = append(cs,
			counter{p + "offloads", int64(ts.Offloads)},
			counter{p + "declines", int64(ts.Declines)},
			counter{p + "traffic_bytes", ts.TrafficBytes},
			counter{p + "faults", int64(ts.Faults)},
			counter{p + "dirty_pages", int64(ts.DirtyPages)},
			counter{p + "prefetch_pages", int64(ts.PrefetchPgs)})
	}
	if dropped > 0 {
		cs = append(cs, counter{"trace.dropped_events", dropped})
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].name < cs[j].name })
	t := report.New("offload session metrics", "Metric", "Value")
	for _, c := range cs {
		t.Add(c.name, c.value)
	}
	return t
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "offloadrun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("offloadrun", flag.ExitOnError)
	name := fs.String("w", "chess", "workload name (chess or a Table 4 program id)")
	irFile := fs.String("ir", "", "run a textual IR program file instead of a named workload")
	stdin := fs.String("stdin", "", "comma-separated integers fed to the program's scanf calls")
	cost := fs.Int64("cost", 1, "cost amplification for -ir programs")
	depth := fs.Int64("depth", 9, "chess difficulty (chess workload only)")
	turns := fs.Int64("turns", 2, "chess game turns (chess workload only)")
	showOut := fs.Bool("output", false, "print program output")
	o := &observability{out: stdout}
	fs.StringVar(&o.traceFile, "trace", "", "write a Chrome trace_event JSON file of the offloaded run")
	fs.StringVar(&o.profileFile, "profile", "", "write a folded-stack guest flamegraph profile of the offloaded run and print the top-functions table")
	fs.BoolVar(&o.breakdown, "breakdown", false, "print the per-offload time breakdown replayed from the trace and the radio-energy table from the power recorder (Fig. 6/7 shape)")
	fs.BoolVar(&o.critPath, "critpath", false, "print each job's critical-path decomposition and the where-the-tail-lives summary replayed from the trace")
	fs.IntVar(&o.exemplars, "exemplars", 0, "with -critpath: limit the per-job table to the N slowest jobs (0 keeps them all)")
	fs.BoolVar(&o.metrics, "metrics", false, "print the offloaded run's counters and the latency table replayed from its trace")
	faultSpec := fs.String("faults", "", `inject link faults into the offloaded run, e.g. "drop=0.1,corrupt=0.02,outage=100ms-250ms,seed=7"`)
	serverFaultSpec := fs.String("server-faults", "", `inject server faults into the offloaded run, e.g. "crash=0@300ms,slow=0@100ms-2sx3,drain=0@1s"`)
	fs.BoolVar(&o.migrate, "migrate", false, "enable mid-flight offload migration: on a server fault, checkpoint/ship/resume the task on a spare host instead of falling back locally")
	common := cli.CommonFlags(fs)
	fs.Parse(args) // ExitOnError: a bad flag or -help ends the process here
	switch {
	case *cost < 1:
		return fmt.Errorf("-cost must be at least 1, got %d", *cost)
	case o.exemplars < 0:
		return fmt.Errorf("-exemplars must not be negative (0 keeps every job), got %d", o.exemplars)
	case o.exemplars > 0 && !o.critPath:
		return fmt.Errorf("-exemplars limits the -critpath table; it does nothing without -critpath")
	}

	stop, err := common.Start(stdout)
	if err != nil {
		return err
	}
	defer stop()

	switch {
	case o.traceFile != "":
		o.tracer = obs.NewTracer(0)
	case o.breakdown || o.critPath || o.metrics:
		// The breakdown, critical-path and latency analyses replay the
		// trace; without -trace, capture into a generous in-memory ring
		// (never written to disk).
		o.tracer = obs.NewTracer(1 << 20)
	}
	if *faultSpec != "" {
		if o.faults, err = faults.Parse(*faultSpec); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
	}
	if *serverFaultSpec != "" {
		if o.serverFaults, err = faults.ParseServer(*serverFaultSpec); err != nil {
			return fmt.Errorf("-server-faults: %w", err)
		}
		// Refuse a host the session will not have before any guest runs.
		if err = o.serverFaults.ValidatePool(offrt.Hosts(o.migrate)); err != nil {
			return fmt.Errorf("-server-faults: %w", err)
		}
	}
	switch {
	case *irFile != "":
		err = runIRFile(*irFile, *stdin, *cost, *showOut, o)
	case *name == "chess":
		err = runChess(*depth, *turns, *showOut, o)
	default:
		err = runWorkload(*name, *showOut, o)
	}
	if err != nil {
		return err
	}
	return o.finish()
}

// runWorkload evaluates one Table 4 program on both networks.
func runWorkload(name string, showOut bool, o *observability) error {
	w := workloads.ByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := experiments.RunProgram(w, func(fw *core.Framework) {
		o.attach(fw)
		// The server-fault plan is not part of this run: it is replayed
		// below and scored against this result as the fault-free reference.
		fw.ServerFaults, fw.Migrate = nil, false
	})
	if err != nil {
		return err
	}
	t := report.New(w.Name+" — "+w.Desc,
		"Run", "Time(s)", "Normalized", "Energy(mJ)", "Traffic(MB)", "Offloaded")
	t.Add("local (mobile only)", r.Local.Time.Seconds(), 1.0, r.Local.EnergyMJ, 0, "-")
	add := func(label string, off *core.OffloadResult, m energy.PowerModel) {
		mb := float64(off.LinkStats.TotalBytes()) * float64(workloads.Scale) / 1e6
		t.Add(label, off.Time.Seconds(), off.NormalizedTime(r.Local),
			off.Recorder.EnergyMJ(m), mb, fmt.Sprintf("%v", off.Offloaded()))
	}
	add("offload slow (802.11n)", r.Slow, energy.SlowModel())
	add("offload fast (802.11ac)", r.Fast, energy.FastModel())
	t.Note("speedup on fast network: %.2fx; coverage %.1f%%", r.Fast.Speedup(r.Local), 100*r.Coverage())
	fmt.Fprintln(o.out, t)
	if o.faults != nil {
		fmt.Fprintf(o.out, "faults (%s): %d injected; recovery: %d retries, %d aborts, %d local fallbacks; output identical to fault-free\n",
			o.faults.String(), r.Fast.FaultStats.Total(), r.Fast.Stats.Retries, r.Fast.Stats.Aborts, r.Fast.Stats.Fallbacks)
	}
	if o.serverFaults != nil {
		cell, err := experiments.RunChaosCell(r, o.serverFaults.String(), func(fw *core.Framework) {
			fw.ServerFaults, fw.Migrate = o.serverFaults, o.migrate
		})
		if err != nil {
			return fmt.Errorf("-server-faults: %w", err)
		}
		fmt.Fprintf(o.out, "server faults (%s): %d migrations, %d crash retries, %d local fallbacks\n",
			cell.Plan, cell.Migrations, cell.CrashRetries, cell.Fallbacks)
		if !cell.Equal() {
			return fmt.Errorf("server-faulted run diverged from the fault-free run")
		}
		fmt.Fprintln(o.out, "server-faulted run identical to fault-free (output, exit code, memory digest)")
	}
	if showOut {
		fmt.Fprintln(o.out, r.Local.Output)
	}
	return o.reportRun(r.Fast, energy.FastModel())
}

// runModule is the pipeline behind -w chess and -ir: one fast-network
// framework with the instrumentation attached, profiled and compiled on
// profIO, then run locally and offloaded on fresh evaluation inputs.
// summarize prints the caller's own headline format before the shared
// per-run reports.
func runModule(o *observability, mod *ir.Module, cost int64, profIO *interp.StdIO, evalIO func() *interp.StdIO,
	summarize func(local *core.LocalResult, off *core.OffloadResult)) (*core.OffloadResult, error) {
	fw := core.NewFramework(core.FastNetwork)
	fw.CostScale = cost
	o.attach(fw)
	cres, err := fw.Prepare(mod, profIO)
	if err != nil {
		return nil, err
	}
	local, err := fw.RunLocal(mod, evalIO())
	if err != nil {
		return nil, fmt.Errorf("local: %w", err)
	}
	off, err := fw.RunOffloaded(cres, evalIO(), offrt.Policy{})
	if err != nil {
		return nil, fmt.Errorf("offload: %w", err)
	}
	summarize(local, off)
	return off, o.reportRun(off, fw.Power)
}

func runChess(depth, turns int64, showOut bool, o *observability) error {
	off, err := runModule(o, workloads.BuildChess(workloads.DefaultChessConfig()), workloads.ChessCostScale,
		workloads.ChessInput(depth-2, turns),
		func() *interp.StdIO { return workloads.ChessInput(depth, turns) },
		func(local *core.LocalResult, off *core.OffloadResult) {
			fmt.Fprintf(o.out, "chess depth %d, %d turns\n", depth, turns)
			fmt.Fprintf(o.out, "  local:    %v  (%.0f mJ)\n", local.Time, local.EnergyMJ)
			fmt.Fprintf(o.out, "  offload:  %v  (%.0f mJ)  speedup %.2fx, battery %.0f%% saved\n",
				off.Time, off.EnergyMJ, off.Speedup(local), 100*(1-off.NormalizedEnergy(local)))
			for _, id := range off.TaskIDs() {
				st := off.PerTask[id]
				fmt.Fprintf(o.out, "  task %d: %d offloads, %d declines, %.1f KB traffic, %d faults\n",
					id, st.Offloads, st.Declines, float64(st.TrafficBytes)/1024, st.Faults)
			}
		})
	if err == nil && showOut {
		fmt.Fprintln(o.out, off.Output)
	}
	return err
}

// runIRFile profiles, compiles and executes a user-written IR program.
func runIRFile(path, stdin string, cost int64, showOut bool, o *observability) error {
	mod, err := cli.LoadIR(path)
	if err != nil {
		return err
	}
	profIO, err := cli.StdinIO(stdin)
	if err != nil {
		return fmt.Errorf("-stdin: %w", err)
	}
	// Every run consumes a fresh token stream; the spec was just validated.
	mkIO := func() *interp.StdIO { in, _ := cli.StdinIO(stdin); return in }
	off, err := runModule(o, mod, cost, profIO, mkIO,
		func(local *core.LocalResult, off *core.OffloadResult) {
			match := "identical"
			if off.Output != local.Output {
				match = "MISMATCH"
			}
			fmt.Fprintf(o.out, "%s: local %v -> offloaded %v (%.2fx speedup, outputs %s)\n",
				mod.Name, local.Time, off.Time, off.Speedup(local), match)
			for _, id := range off.TaskIDs() {
				st := off.PerTask[id]
				fmt.Fprintf(o.out, "  task %d: %d offloads, %.1f KB traffic\n", id, st.Offloads, float64(st.TrafficBytes)/1024)
			}
		})
	if err == nil && showOut {
		fmt.Fprint(o.out, off.Output)
	}
	return err
}
