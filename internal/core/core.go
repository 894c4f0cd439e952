// Package core is the public face of the Native Offloader reproduction: a
// Framework that profiles a native program, compiles it into an
// offloading-enabled mobile/server binary pair, and executes it under the
// cooperative runtime, reporting execution time, energy, traffic, and the
// Figure 7 overhead breakdown.
//
// Typical use (see examples/quickstart):
//
//	fw := core.NewFramework(core.FastNetwork)
//	prog := func() *ir.Module { ... } // front-end output
//	cres, _ := fw.Prepare(prog(), profilingInput) // Profile + Compile
//	local, _ := fw.RunLocal(prog(), evalInput)
//	off, _ := fw.RunOffloaded(cres, evalInput, offrt.Policy{})
//	fmt.Println(local.Time, off.Time, off.Speedup(local))
package core

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/offrt"
	"repro/internal/profile"
	"repro/internal/simtime"
)

// Network selects one of the paper's two evaluation environments.
type Network int

const (
	SlowNetwork Network = iota // 802.11n
	FastNetwork                // 802.11ac
)

// Framework bundles the architectures, network and power models of one
// evaluation setup.
type Framework struct {
	Mobile *arch.Spec
	Server *arch.Spec
	Link   *netsim.Link
	Power  energy.PowerModel

	// CostScale amplifies interpreter costs so small kernels model
	// paper-scale execution times (see WithScale).
	CostScale int64

	// RemoteIO toggles the Section 3.4 remote I/O optimization.
	RemoteIO bool

	// Tracer, when set, records structured lifecycle events for every
	// offloaded run; nil disables tracing at zero cost.
	Tracer *obs.Tracer

	// Faults, when set, injects deterministic link failures into every
	// offloaded run (chaos testing); the session's recovery layer retries,
	// aborts and falls back locally as needed. Nil leaves the link reliable.
	Faults *faults.Plan
	// ServerFaults, when set, schedules deterministic *server* faults
	// (slowdown, stall, crash, drain) against every offloaded run's server.
	// Nil leaves the server perfectly healthy.
	ServerFaults *faults.ServerPlan
	// Migrate enables mid-flight offload migration: on a detected server
	// fault the session checkpoints, ships and resumes the task on a spare
	// instance instead of falling back locally.
	Migrate bool

	// Engine selects the interpreter engine for every machine this
	// framework builds (RunLocal, RunOffloaded, Profile's machine). The
	// zero value is the pre-decoded fast engine, which is what ships;
	// interp.EngineRef, the reference tree-walker, is for differential tests
	// and the benchmark's engine probe. RunOffloaded needs the fast engine:
	// offrt.NewSession refuses a server on the reference engine.
	Engine interp.Engine

	// ProfileStacks attaches a guest stack profile (interp.Sampler) to both
	// machines of every offloaded run, charging from their clocks at the
	// attach; the flushed profiles come back in
	// OffloadResult.MobileProf/ServerProf.
	ProfileStacks bool

	// Cache memoizes compiled program artifacts (pre-decoded code + initial
	// memory image) across runs: every machine this framework builds binds
	// as a copy-on-write instance of a cached interp.Program, so repeated
	// runs of the same binary pair compile once and share one image.
	// NewFramework installs DefaultCache; set to nil to compile privately.
	Cache *interp.CompilationCache
}

// DefaultCache is the process-wide compilation cache NewFramework installs:
// frameworks built anywhere in the process (experiments, fleets, CLIs)
// share compiled programs keyed by (module digest, architecture binding).
var DefaultCache = interp.NewCompilationCache()

// NewFramework returns the default evaluation setup on the given network:
// ARM32 mobile, x86-64 server.
func NewFramework(n Network) *Framework {
	fw := &Framework{
		Mobile:    arch.ARM32(),
		Server:    arch.X8664(),
		CostScale: 1,
		RemoteIO:  true,
		Cache:     DefaultCache,
	}
	switch n {
	case SlowNetwork:
		fw.Link = netsim.Slow80211N()
		fw.Power = energy.SlowModel()
	default:
		fw.Link = netsim.Fast80211AC()
		fw.Power = energy.FastModel()
	}
	return fw
}

// WithScale applies the common memory/bandwidth scale factor (workloads
// shrink footprints by scale; the link shrinks bandwidth to match, so all
// time ratios are preserved) and the workload's cost amplification.
func (fw *Framework) WithScale(scale int, costScale int64) *Framework {
	fw.CostScale = costScale
	fw.Link = fw.Link.Scaled(scale)
	return fw
}

// Profile runs mod on the mobile machine with the profiling input and
// returns the hot function/loop report (Section 3.1). The program is compiled
// with the profiler's hooks woven in, so the run stays on fw.Engine.
func (fw *Framework) Profile(mod *ir.Module, io *interp.StdIO) (*profile.Report, error) {
	work := mod.Clone("profile:" + mod.Name)
	ir.Lower(work, fw.Mobile, fw.Mobile)
	prog, err := interp.Compile(work, interp.CompileConfig{
		Name: "profiler", Spec: fw.Mobile, InitUVAGlobals: true, Instrument: true,
	}, fw.Cache)
	if err != nil {
		return nil, err
	}
	m := prog.NewInstance(interp.WithIO(io), interp.WithCostScale(fw.CostScale),
		interp.WithEngine(fw.Engine))
	rep, err := profile.Run(m)
	m.Mem.Release()
	return rep, err
}

// Compile partitions mod into the offloading-enabled binary pair using the
// profiling report, pricing Equation 1 as the session's gate will.
func (fw *Framework) Compile(mod *ir.Module, prof *profile.Report) (*compiler.Result, error) {
	return compiler.Compile(mod, prof, compiler.Options{
		Mobile: fw.Mobile, Server: fw.Server, RemoteIO: fw.RemoteIO,
		Est: offrt.EstimateParams(fw.Mobile, fw.Server, fw.Link),
	})
}

// Prepare is Profile followed by Compile: the binary pair for mod, with
// targets chosen from a profiling run on profIO.
func (fw *Framework) Prepare(mod *ir.Module, profIO *interp.StdIO) (*compiler.Result, error) {
	prof, err := fw.Profile(mod, profIO)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cres, err := fw.Compile(mod, prof)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return cres, nil
}

// Programs compiles (or fetches from the cache) the shared program
// artifacts for both halves of a binary pair. The server half is linked
// differently (own function base, shuffled function and global order), as
// a separately built binary for another machine would be.
func (fw *Framework) Programs(cres *compiler.Result) (mobile, server *interp.Program, err error) {
	mobile, err = interp.Compile(cres.Mobile, interp.CompileConfig{
		Name: "mobile", Spec: fw.Mobile, Std: fw.Mobile,
		FuncBase: mem.FuncBaseMobile, InitUVAGlobals: true,
	}, fw.Cache)
	if err != nil {
		return nil, nil, fmt.Errorf("core: mobile program: %w", err)
	}
	server, err = interp.Compile(cres.Server, interp.CompileConfig{
		Name: "server", Spec: fw.Server, Std: fw.Mobile,
		FuncBase: mem.FuncBaseServer, ShuffleFuncs: true, ShuffleGlobals: true,
	}, fw.Cache)
	if err != nil {
		return nil, nil, fmt.Errorf("core: server program: %w", err)
	}
	return mobile, server, nil
}

// LocalResult is a plain mobile-only execution.
type LocalResult struct {
	Code     int32
	Time     simtime.PS
	EnergyMJ float64
	Output   string
}

// RunLocal executes the unmodified program on the mobile device — the
// paper's normalization baseline.
func (fw *Framework) RunLocal(mod *ir.Module, io *interp.StdIO) (*LocalResult, error) {
	work := mod.Clone("local:" + mod.Name)
	ir.Lower(work, fw.Mobile, fw.Mobile)
	prog, err := interp.Compile(work, interp.CompileConfig{
		Name: "mobile", Spec: fw.Mobile, InitUVAGlobals: true,
	}, fw.Cache)
	if err != nil {
		return nil, err
	}
	m := prog.NewInstance(interp.WithIO(io), interp.WithCostScale(fw.CostScale),
		interp.WithEngine(fw.Engine))
	code, err := m.RunMain()
	if err != nil {
		return nil, err
	}
	m.Mem.Release()
	return &LocalResult{
		Code:     code,
		Time:     m.Clock,
		EnergyMJ: energy.LocalEnergyMJ(fw.Power, m.Clock),
		Output:   io.Out.String(),
	}, nil
}

// OffloadResult is one cooperative mobile+server execution.
type OffloadResult struct {
	Code     int32
	Time     simtime.PS
	EnergyMJ float64
	Output   string

	// Comp is the Figure 7 breakdown: compute / fptr / remoteIO / comm.
	Comp [interp.NumComponents]simtime.PS
	// ServerCompute is the offloaded tasks' compute time at server speed.
	ServerCompute simtime.PS
	// LinkStats is the wire-level traffic accounting; Stats the
	// session-level offload accounting; PerTask the per-target numbers.
	LinkStats netsim.LinkStats
	Stats     offrt.SessionStats
	PerTask   map[int]*offrt.TaskStats
	// Recorder holds the power timeline for Figure 8.
	Recorder *energy.Recorder
	// MemDigest hashes the mobile device's final semantic memory (globals
	// and heap, stacks excluded); chaos testing compares it between
	// faulted and fault-free runs.
	MemDigest uint64
	// FaultStats counts the faults actually injected (zero without a plan).
	FaultStats faults.Stats

	// MobileProf/ServerProf are the flushed guest stack profiles (nil
	// unless Framework.ProfileStacks was set). MobileProf.Total() == Time and
	// ServerProf.Total() == ServerTime, to the picosecond.
	MobileProf *interp.Sampler
	ServerProf *interp.Sampler
	// ServerTime is the server machine's final clock (the server idles at
	// its accept loop in between offloads, so this tracks the mobile's
	// timeline, not busy time).
	ServerTime simtime.PS
}

// Speedup returns local.Time / off.Time.
func (r *OffloadResult) Speedup(local *LocalResult) float64 {
	if r.Time == 0 {
		return 0
	}
	return float64(local.Time) / float64(r.Time)
}

// NormalizedTime returns off.Time / local.Time (Figure 6(a)'s y-axis).
func (r *OffloadResult) NormalizedTime(local *LocalResult) float64 {
	if local.Time == 0 {
		return 0
	}
	return float64(r.Time) / float64(local.Time)
}

// NormalizedEnergy returns off/local battery use (Figure 6(b)'s y-axis).
func (r *OffloadResult) NormalizedEnergy(local *LocalResult) float64 {
	if local.EnergyMJ == 0 {
		return 0
	}
	return r.EnergyMJ / local.EnergyMJ
}

// TaskIDs lists the run's task ids in ascending order, so per-task lines
// print the same way on every run.
func (r *OffloadResult) TaskIDs() []int {
	ids := make([]int, 0, len(r.PerTask))
	for id := range r.PerTask {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// IdealTime is the execution time without any overhead (communication,
// translation, remote I/O): the pure-compute component of the run.
func (r *OffloadResult) IdealTime() simtime.PS {
	return r.Comp[interp.CompCompute]
}

// Offloaded reports whether any task was actually offloaded (the dynamic
// estimator may decline everything, the starred bars of Figure 6).
func (r *OffloadResult) Offloaded() bool {
	for _, st := range r.PerTask {
		if st.Offloads > 0 {
			return true
		}
	}
	return false
}

// RunOffloaded executes the compiled pair under the runtime.
func (fw *Framework) RunOffloaded(cres *compiler.Result, io *interp.StdIO, pol offrt.Policy) (*OffloadResult, error) {
	mobileProg, serverProg, err := fw.Programs(cres)
	if err != nil {
		return nil, err
	}
	mobile := mobileProg.NewInstance(interp.WithIO(io),
		interp.WithCostScale(fw.CostScale), interp.WithEngine(fw.Engine))
	server := serverProg.NewInstance(
		interp.WithCostScale(fw.CostScale), interp.WithEngine(fw.Engine))

	var tasks []offrt.TaskSpec
	for _, t := range cres.Targets {
		tasks = append(tasks, t.Task)
	}
	opts := []offrt.Option{
		offrt.WithTasks(tasks...), offrt.WithPolicy(pol),
		offrt.WithTracer(fw.Tracer),
	}
	var injector *faults.Injector
	if fw.Faults != nil {
		injector, err = faults.NewInjector(*fw.Faults)
		if err != nil {
			return nil, fmt.Errorf("core: fault plan: %w", err)
		}
		opts = append(opts, offrt.WithFaults(injector))
	}
	if fw.ServerFaults != nil {
		opts = append(opts, offrt.WithServerFaults(fw.ServerFaults))
	}
	if fw.Migrate {
		opts = append(opts, offrt.WithMigration())
	}
	sess, err := offrt.NewSession(mobile, server, fw.Link, opts...)
	if err != nil {
		return nil, fmt.Errorf("core: session: %w", err)
	}
	var mProf, sProf *interp.Sampler
	if fw.ProfileStacks {
		mProf, sProf = interp.NewSampler(), interp.NewSampler()
		mProf.Attach(mobile)
		sProf.Attach(server)
	}
	code, err := sess.RunMobile()
	if err != nil {
		return nil, err
	}
	mProf.Flush(mobile.Clock)
	sProf.Flush(server.Clock)
	var fstats faults.Stats
	if injector != nil {
		fstats = injector.Stats()
	}
	res := &OffloadResult{
		Code:          code,
		Time:          mobile.Clock,
		EnergyMJ:      sess.Recorder.EnergyMJ(fw.Power),
		Output:        io.Out.String(),
		Comp:          sess.Comp,
		ServerCompute: sess.ServerCompute,
		LinkStats:     sess.LinkStats,
		Stats:         sess.Stats,
		PerTask:       sess.PerTask,
		Recorder:      sess.Recorder,
		MemDigest:     sess.MemDigest(),
		FaultStats:    fstats,
		MobileProf:    mProf,
		ServerProf:    sProf,
		ServerTime:    server.Clock,
	}
	// The session is over and the digest taken: both page sets go back to
	// the frame pool for the next run.
	mobile.Mem.Release()
	server.Mem.Release()
	return res, nil
}
