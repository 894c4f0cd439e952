package main

import (
	"errors"
	"fmt"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/offrt"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// The two guest-execution workloads: paper_sweep evaluates the paper's 17
// programs cold, session_churn serves warm compiled pairs to many sessions.

// guestProcs: the guest workloads are measured on one thread. A session's
// mobile and server machines are two goroutines that hand each message to
// one another, and the collector runs every few milliseconds at these
// allocation rates; spread over several threads, both turn into cross-CPU
// wake-ups whose cost is the host scheduler's, not the program's.
const guestProcs = 1

func (*paperSweep) procs() int   { return guestProcs }
func (*sessionChurn) procs() int { return guestProcs }

// spanned runs f inside a span.
func spanned[T any](r *recorder, name string, f func() (T, error)) (T, error) {
	r.begin(name)
	defer r.end()
	return f()
}

// frameworks returns the paper's two evaluation setups for w, sharing one
// compilation cache.
func frameworks(w *workloads.Workload, cache *interp.CompilationCache) (fast, slow *core.Framework) {
	fast = core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, w.CostScale)
	slow = core.NewFramework(core.SlowNetwork).WithScale(workloads.Scale, w.CostScale)
	fast.Cache, slow.Cache = cache, cache
	return fast, slow
}

func programs(names []string) ([]*workloads.Workload, error) {
	if names == nil {
		return workloads.All(), nil
	}
	var out []*workloads.Workload
	for _, n := range names {
		w := workloads.ByName(n)
		if w == nil {
			return nil, fmt.Errorf("no program %q", n)
		}
		out = append(out, w)
	}
	return out, nil
}

// ---- checks made from outside ----

// checkOffload holds an offloaded run to the local run's output and exit
// code: offloading must be invisible to the program.
func checkOffload(arm string, local *core.LocalResult, off *core.OffloadResult) error {
	if off.Code != local.Code {
		return fmt.Errorf("%s: exit code %d, local run gave %d", arm, off.Code, local.Code)
	}
	if off.Output != local.Output {
		return fmt.Errorf("%s: output differs from the local run's", arm)
	}
	return nil
}

// checkGate holds the dynamic gate to the paper: every program offloads on
// 802.11ac, and exactly the starred ones (164.gzip) stay local on 802.11n.
func checkGate(w *workloads.Workload, fast, slow *core.OffloadResult) error {
	if !fast.Offloaded() {
		return errors.New("fast link: nothing was offloaded")
	}
	if slow.Offloaded() == w.Paper.StarredSlow {
		return fmt.Errorf("slow link: offloaded=%v but the paper stars it=%v", slow.Offloaded(), w.Paper.StarredSlow)
	}
	return nil
}

// checkDigest holds a faulted session's final mobile memory to the
// fault-free session's.
func checkDigest(faultFree, faulted uint64) error {
	if faultFree != faulted {
		return fmt.Errorf("faulted session left memory digest %#x, fault-free %#x", faulted, faultFree)
	}
	return nil
}

// ---- exact simulated values ----

// guestTally sums what the sessions of one pass did on the simulated
// clock. Every field is a pure function of the inputs, so two passes of
// one run must agree on all of them.
type guestTally struct {
	speedups, battery []float64 // local÷offloaded time; offloaded÷local energy

	sessions, offloads, declines          int
	pageFaults, prefetchPages, dirtyPages int
	retries, aborts, fallbacks            int
	e2eLatency, comm                      simtime.PS
	msgs                                  int
	bytesUp, bytesDown                    int64
	injected                              int64
	localMJ, offloadMJ                    float64
	residentBytes                         int64

	targets, offloadedFuncs int
	profTotal               simtime.PS
}

// session adds one offloaded run. headline runs enter the speedup and
// battery geomeans (the paper's headline is the fast link alone).
func (t *guestTally) session(off *core.OffloadResult, local *core.LocalResult, power energy.PowerModel, headline bool) {
	t.sessions++
	t.offloads += off.Stats.Offloads
	t.declines += off.Stats.Declines
	t.pageFaults += off.Stats.Faults
	t.prefetchPages += off.Stats.PrefetchPages
	t.dirtyPages += off.Stats.DirtyPages
	t.retries += off.Stats.Retries
	t.aborts += off.Stats.Aborts
	t.fallbacks += off.Stats.Fallbacks
	t.e2eLatency += off.Stats.E2ELatency
	t.msgs += off.LinkStats.MsgsToServer + off.LinkStats.MsgsToMobile
	t.bytesUp += off.LinkStats.BytesToServer
	t.bytesDown += off.LinkStats.BytesToMobile
	t.comm += off.LinkStats.CommTimeMobile
	t.injected += off.FaultStats.Total()
	if headline {
		localMJ := energy.LocalEnergyMJ(power, local.Time)
		t.speedups = append(t.speedups, float64(local.Time)/float64(off.Time))
		t.battery = append(t.battery, off.EnergyMJ/localMJ)
		t.localMJ += localMJ
		t.offloadMJ += off.EnergyMJ
	}
}

func (t *guestTally) into(sim map[string]float64) {
	sim["sim_speedup_x"] = report.Geomean(t.speedups)
	sim["energy.sim_saving_pct"] = 100 * (1 - report.Geomean(t.battery))
	sim["energy.local_mj"] = t.localMJ
	sim["energy.offload_mj"] = t.offloadMJ
	sim["offrt.sessions"] = float64(t.sessions)
	sim["offrt.offloads"] = float64(t.offloads)
	sim["offrt.declines"] = float64(t.declines)
	sim["offrt.page_faults"] = float64(t.pageFaults)
	sim["offrt.prefetch_pages"] = float64(t.prefetchPages)
	sim["offrt.dirty_pages"] = float64(t.dirtyPages)
	sim["offrt.retries"] = float64(t.retries)
	sim["offrt.aborts"] = float64(t.aborts)
	sim["offrt.fallbacks"] = float64(t.fallbacks)
	sim["offrt.sim_e2e_latency_s"] = t.e2eLatency.Seconds()
	sim["netsim.msgs"] = float64(t.msgs)
	sim["netsim.bytes_to_server"] = float64(t.bytesUp)
	sim["netsim.bytes_to_mobile"] = float64(t.bytesDown)
	sim["netsim.comm_sim_s"] = t.comm.Seconds()
	sim["faults.injected"] = float64(t.injected)
	sim["compiler.targets"] = float64(t.targets)
	sim["compiler.offloaded_funcs"] = float64(t.offloadedFuncs)
	sim["profile.sim_total_s"] = t.profTotal.Seconds()
	if t.sessions > 0 {
		sim["mem.resident_private_bytes_per_session"] = float64(t.residentBytes) / float64(t.sessions)
	}
}

// ---- paper_sweep ----

// evaluated keeps one program's artifacts from the latest pass for the
// interpreter probes.
type evaluated struct {
	w     *workloads.Workload
	mod   *ir.Module
	cres  *compiler.Result
	local *core.LocalResult
}

type paperSweep struct {
	progs, warm []*workloads.Workload
	last        []evaluated
}

// setup warms the process on the short programs. A pass is cold by
// definition (the CLI user compiles on every run), so there is no cache to
// fill; this only takes the Go heap and the OS past their first-touch cost.
func (p *paperSweep) setup(e *env) error {
	var err error
	if p.progs, err = programs(e.opts.sizes.paperPrograms); err != nil {
		return err
	}
	if p.warm, err = programs(e.opts.sizes.shortPrograms); err != nil {
		return err
	}
	cache := interp.NewCompilationCache()
	for _, w := range p.warm {
		if _, err := p.evaluate(nil, w, cache, &guestTally{}); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	return nil
}

func (p *paperSweep) pass(e *env) {
	cache := interp.NewCompilationCache()
	var t guestTally
	p.last = p.last[:0]
	for _, w := range p.progs {
		e.rec.nextOp()
		e.rec.begin("bench.op")
		ev, err := p.evaluate(e.rec, w, cache, &t)
		e.rec.end()
		e.done(w.Name, err)
		if err == nil {
			p.last = append(p.last, ev)
		}
	}
	t.into(e.sim)
	cs := cache.Stats()
	e.sim["interp.cache_hits"] = float64(cs.Hits)
	e.sim["interp.cache_misses"] = float64(cs.Misses)
}

// evaluate is the paper's evaluation of one program: profile on the
// profiling input, compile the pair, run the evaluation input locally and
// offloaded over both links.
func (p *paperSweep) evaluate(rec *recorder, w *workloads.Workload, cache *interp.CompilationCache, t *guestTally) (evaluated, error) {
	fast, slow := frameworks(w, cache)
	rec.begin("workloads.build_s")
	mod := w.Build()
	rec.end()
	prof, err := spanned(rec, "profile.host_s", func() (*profile.Report, error) { return fast.Profile(mod, w.ProfileIO()) })
	if err != nil {
		return evaluated{}, fmt.Errorf("profile: %w", err)
	}
	cres, err := spanned(rec, "compiler.host_s", func() (*compiler.Result, error) { return fast.Compile(mod, prof) })
	if err != nil {
		return evaluated{}, fmt.Errorf("compile: %w", err)
	}
	local, err := spanned(rec, "interp.local_host_s", func() (*core.LocalResult, error) { return fast.RunLocal(mod, w.EvalIO()) })
	if err != nil {
		return evaluated{}, fmt.Errorf("local: %w", err)
	}
	offFast, err := spanned(rec, "offrt.fast_host_s", func() (*core.OffloadResult, error) {
		return fast.RunOffloaded(cres, w.EvalIO(), offrt.Policy{})
	})
	if err != nil {
		return evaluated{}, fmt.Errorf("fast link: %w", err)
	}
	offSlow, err := spanned(rec, "offrt.slow_host_s", func() (*core.OffloadResult, error) {
		return slow.RunOffloaded(cres, w.EvalIO(), offrt.Policy{})
	})
	if err != nil {
		return evaluated{}, fmt.Errorf("slow link: %w", err)
	}
	t.targets += len(cres.Targets)
	t.offloadedFuncs += cres.OffloadedFuncs
	t.profTotal += prof.Total
	t.session(offFast, local, fast.Power, true)
	t.session(offSlow, local, slow.Power, false)
	return evaluated{w, mod, cres, local}, errors.Join(
		checkOffload("fast link", local, offFast),
		checkOffload("slow link", local, offSlow),
		checkGate(w, offFast, offSlow))
}

// layers: host time per layer from the spans, then the interpreter probes.
// Each lowered module is compiled cold and its local binary run on both
// engines, which must agree on steps, clock and output.
func (p *paperSweep) layers(e *env, self, _ spanTimes, passes int, m map[string]float64) {
	for _, name := range []string{"workloads.build_s", "profile.host_s", "compiler.host_s",
		"interp.local_host_s", "offrt.fast_host_s", "offrt.slow_host_s"} {
		m[name] = self.sum(name) / float64(passes)
	}
	m["offrt.overhead_x"] = m["offrt.fast_host_s"] / m["interp.local_host_s"]

	var steps int64
	var compileS, fastS, refS float64
	for _, ev := range p.last {
		fw, _ := frameworks(ev.w, nil)
		work := ev.mod.Clone("probe:" + ev.mod.Name)
		ir.Lower(work, fw.Mobile, fw.Mobile)
		var prog *interp.Program
		var err error
		compileS += stopwatch(func() {
			prog, err = interp.Compile(work, interp.CompileConfig{Name: "mobile", Spec: fw.Mobile, InitUVAGlobals: true}, nil)
			if err != nil {
				return
			}
			_, err = interp.Compile(ev.cres.Mobile, mobileConfig(fw), nil)
			if err != nil {
				return
			}
			_, err = interp.Compile(ev.cres.Server, serverConfig(fw), nil)
		})
		if err != nil {
			e.done(ev.w.Name+" probe", fmt.Errorf("interp.Compile: %w", err))
			continue
		}
		run := func(engine interp.Engine) (*interp.Machine, string, float64, error) {
			io := ev.w.EvalIO()
			mach := prog.NewInstance(interp.WithIO(io), interp.WithCostScale(fw.CostScale), interp.WithEngine(engine))
			var err error
			d := stopwatch(func() { _, err = mach.RunMain() })
			return mach, io.Out.String(), d, err
		}
		fm, fout, fd, ferr := run(interp.EngineFast)
		rm, rout, rd, rerr := run(interp.EngineRef)
		switch {
		case ferr != nil || rerr != nil:
			err = errors.Join(ferr, rerr)
		case fm.Steps != rm.Steps || fm.Clock != rm.Clock || fout != rout:
			err = fmt.Errorf("engines disagree: fast %d steps %v, ref %d steps %v, same output %v",
				fm.Steps, fm.Clock, rm.Steps, rm.Clock, fout == rout)
		case fm.Clock != ev.local.Time || fout != ev.local.Output:
			err = fmt.Errorf("direct run disagrees with RunLocal: clock %v vs %v", fm.Clock, ev.local.Time)
		}
		e.done(ev.w.Name+" probe", err)
		steps += fm.Steps
		fastS += fd
		refS += rd
	}
	m["interp.compile_s"] = compileS
	m["interp.guest_steps"] = float64(steps)
	if fastS > 0 && refS > 0 {
		m["interp.fast_steps_per_s"] = float64(steps) / fastS
		m["interp.ref_steps_per_s"] = float64(steps) / refS
	}
}

// mobileConfig and serverConfig are the bindings core.RunOffloaded gives
// the two binaries of a compiled pair.
func mobileConfig(fw *core.Framework) interp.CompileConfig {
	return interp.CompileConfig{Name: "mobile", Spec: fw.Mobile, Std: fw.Mobile,
		FuncBase: mem.FuncBaseMobile, InitUVAGlobals: true}
}

func serverConfig(fw *core.Framework) interp.CompileConfig {
	return interp.CompileConfig{Name: "server", Spec: fw.Server, Std: fw.Mobile,
		FuncBase: mem.FuncBaseServer, ShuffleFuncs: true, ShuffleGlobals: true}
}

// ---- session_churn ----

// faultedLink is the third arm's plan: light enough that every session
// still completes, heavy enough that the chatty programs retry often.
func faultedLink(seed uint64) faults.Plan {
	return faults.Plan{Seed: seed, DropRate: 0.02, CorruptRate: 0.01, DelayRate: 0.05}
}

const (
	armFast = iota
	armSlow
	armFaulted
	numArms
)

// served is one program ready to serve: compiled once in set-up, with the
// local run and the fault-free fast session as references.
type served struct {
	w          *workloads.Workload
	fast, slow *core.Framework
	cres       *compiler.Result
	tasks      []offrt.TaskSpec
	local      *core.LocalResult
	digest     uint64 // fault-free fast-link session's final memory
}

type sessionChurn struct {
	cache *interp.CompilationCache
	progs []*served
}

// setup profiles and compiles each short program once and runs one
// fault-free session per link, which fills the compilation cache with both
// binaries: from here on every bind is a cache hit.
func (c *sessionChurn) setup(e *env) error {
	ws, err := programs(e.opts.sizes.shortPrograms)
	if err != nil {
		return err
	}
	c.cache = interp.NewCompilationCache()
	c.progs = c.progs[:0]
	for _, w := range ws {
		p := &served{w: w}
		p.fast, p.slow = frameworks(w, c.cache)
		mod := w.Build()
		prof, err := p.fast.Profile(mod, w.ProfileIO())
		if err != nil {
			return fmt.Errorf("%s: profile: %w", w.Name, err)
		}
		if p.cres, err = p.fast.Compile(mod, prof); err != nil {
			return fmt.Errorf("%s: compile: %w", w.Name, err)
		}
		for _, tg := range p.cres.Targets {
			p.tasks = append(p.tasks, offrt.TaskSpec{TaskID: tg.TaskID, Name: tg.Name,
				TimePerInvocation: tg.TimePerInvocation, MemBytes: tg.MemBytes})
		}
		if p.local, err = p.fast.RunLocal(mod, w.EvalIO()); err != nil {
			return fmt.Errorf("%s: local: %w", w.Name, err)
		}
		var t guestTally
		ref, err := c.session(nil, p, armFast, 0, &t)
		if err != nil {
			return fmt.Errorf("%s: reference session: %w", w.Name, err)
		}
		p.digest = ref.MemDigest
		if _, err := c.session(nil, p, armSlow, 0, &t); err != nil {
			return fmt.Errorf("%s: reference session: %w", w.Name, err)
		}
		c.progs = append(c.progs, p)
	}
	return nil
}

// pass is rounds × programs × {fast, slow, faulted fast} sessions. The
// seed fixes each round's order and every fault plan; passes repeat the
// same rounds, so a run's simulated values do not depend on how many
// passes fit into it.
func (c *sessionChurn) pass(e *env) {
	type job struct {
		p   *served
		arm int
	}
	before := c.cache.Stats()
	var t guestTally
	for round := 0; round < e.opts.sizes.churnRounds; round++ {
		var jobs []job
		for _, p := range c.progs {
			for arm := 0; arm < numArms; arm++ {
				jobs = append(jobs, job{p, arm})
			}
		}
		rng := splitmix(e.opts.seed ^ uint64(round+1)*0x9E3779B97F4A7C15)
		for i := len(jobs) - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			jobs[i], jobs[j] = jobs[j], jobs[i]
		}
		for _, j := range jobs {
			e.rec.nextOp()
			e.rec.begin("offrt.session")
			off, err := c.session(e.rec, j.p, j.arm, rng.next(), &t)
			if err == nil {
				err = checkOffload("session", j.p.local, off)
				if j.arm == armFaulted {
					err = errors.Join(err, checkDigest(j.p.digest, off.MemDigest))
				}
			}
			e.rec.end()
			e.done(fmt.Sprintf("%s arm %d round %d", j.p.w.Name, j.arm, round), err)
		}
	}
	t.into(e.sim)
	after := c.cache.Stats()
	e.sim["interp.cache_hits"] = float64(after.Hits - before.Hits)
	e.sim["interp.cache_misses"] = float64(after.Misses - before.Misses)
}

// session is core.Framework.RunOffloaded taken apart — cache lookup, two
// binds, NewSession, RunMobile, MemDigest — so that a traced pass has a
// span on each step. Untraced passes run the same code with a nil recorder.
func (c *sessionChurn) session(rec *recorder, p *served, arm int, planSeed uint64, t *guestTally) (*core.OffloadResult, error) {
	fw := p.fast
	if arm == armSlow {
		fw = p.slow
	}
	mobileProg, err := spanned(rec, "interp.cache_lookup_us", func() (*interp.Program, error) {
		return interp.Compile(p.cres.Mobile, mobileConfig(fw), c.cache)
	})
	if err != nil {
		return nil, err
	}
	serverProg, err := spanned(rec, "interp.cache_lookup_us", func() (*interp.Program, error) {
		return interp.Compile(p.cres.Server, serverConfig(fw), c.cache)
	})
	if err != nil {
		return nil, err
	}
	io := p.w.EvalIO()
	rec.begin("interp.bind_us")
	mobile := mobileProg.NewInstance(interp.WithIO(io), interp.WithCostScale(fw.CostScale), interp.WithEngine(fw.Engine))
	rec.end()
	rec.begin("interp.bind_us")
	server := serverProg.NewInstance(interp.WithCostScale(fw.CostScale), interp.WithEngine(fw.Engine))
	rec.end()

	opts := []offrt.Option{offrt.WithTasks(p.tasks...)}
	var injector *faults.Injector
	if arm == armFaulted {
		if injector, err = faults.NewInjector(faultedLink(planSeed)); err != nil {
			return nil, err
		}
		opts = append(opts, offrt.WithFaults(injector))
	}
	sess, err := spanned(rec, "offrt.session_setup_us", func() (*offrt.Session, error) {
		return offrt.NewSession(mobile, server, fw.Link, opts...)
	})
	if err != nil {
		return nil, err
	}
	code, err := spanned(rec, "offrt.run_us", sess.RunMobile)
	if err != nil {
		return nil, err
	}
	off := &core.OffloadResult{
		Code: code, Time: mobile.Clock, Output: io.Out.String(),
		EnergyMJ:  sess.Recorder.EnergyMJ(fw.Power),
		LinkStats: sess.LinkStats, Stats: sess.Stats, PerTask: sess.PerTask,
	}
	rec.begin("mem.digest_us")
	off.MemDigest = sess.MemDigest()
	rec.end()
	if injector != nil {
		off.FaultStats = injector.Stats()
	}
	t.session(off, p.local, fw.Power, true)
	t.residentBytes += int64(mobile.Mem.ResidentPrivateBytes() + server.Mem.ResidentPrivateBytes())
	return off, nil
}

// layers: per-call medians of the bind and protocol steps, and the
// distribution of whole-session host time.
func (c *sessionChurn) layers(_ *env, self, dur spanTimes, _ int, m map[string]float64) {
	for _, name := range []string{"interp.cache_lookup_us", "interp.bind_us",
		"offrt.session_setup_us", "offrt.run_us", "mem.digest_us"} {
		m[name] = median(self[name]) * 1e6
	}
	m["offrt.session_host_p50_us"] = nearestRank(dur["offrt.session"], 0.50) * 1e6
	m["offrt.session_host_p99_us"] = nearestRank(dur["offrt.session"], 0.99) * 1e6
}
