package offrt

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/estimate"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// The suite's one harness: a guest program (a workloads.Workload: module
// builder, the two inputs, cost scale) is profiled and partitioned into a
// pair, and every session binds instances of the pair's two Programs — the
// pipeline core.Framework runs, spelled out so tests can reach each stage.

// pair is one program profiled and partitioned: the compiler's two binaries,
// the task table, and the Programs sessions bind.
type pair struct {
	w              *workloads.Workload
	cres           *compiler.Result
	tasks          []TaskSpec
	mobile, server *interp.Program
}

func noInput() *interp.StdIO { return interp.NewStdIO(nil) }

// guestAt wraps a module builder as an input-free guest at a cost scale.
func guestAt(name string, build func() *ir.Module, costScale int64) *workloads.Workload {
	return &workloads.Workload{Name: name, Build: build, ProfileIO: noInput, EvalIO: noInput, CostScale: costScale}
}

// partition profiles w on the mobile architecture, partitions it for a link
// of the given bandwidth and compiles both binaries.
func partition(t testing.TB, w *workloads.Workload, bandwidthBps int64) *pair {
	t.Helper()
	mod := w.Build()
	work := mod.Clone("prof")
	spec := arch.ARM32()
	ir.Lower(work, spec, spec)
	profProg, err := interp.Compile(work, interp.CompileConfig{Name: "prof", Spec: spec, InitUVAGlobals: true, Instrument: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Run(profProg.NewInstance(interp.WithIO(w.ProfileIO()), interp.WithCostScale(w.CostScale)))
	if err != nil {
		t.Fatal(err)
	}
	p := &pair{w: w}
	if p.cres, err = compiler.Compile(mod, prof, compiler.Default(estimate.Params{
		R: arch.PerformanceRatio(arch.ARM32(), arch.X8664()), BandwidthBps: bandwidthBps})); err != nil {
		t.Fatal(err)
	}
	for _, tg := range p.cres.Targets {
		p.tasks = append(p.tasks, TaskSpec{TaskID: tg.TaskID, Name: tg.Name,
			TimePerInvocation: tg.TimePerInvocation, MemBytes: tg.MemBytes})
	}
	p.bind(t)
	return p
}

// bind compiles the pair's two binaries into the Programs sessions
// instantiate. partition calls it; a test that doctors p.cres to break a
// compiler mechanism calls it again.
func (p *pair) bind(t testing.TB) {
	t.Helper()
	mob, srv := arch.ARM32(), arch.X8664() // compiler.Default's pair
	var err error
	p.mobile, err = interp.Compile(p.cres.Mobile, interp.CompileConfig{
		Name: "mobile", Spec: mob, Std: mob,
		FuncBase: mem.FuncBaseMobile, InitUVAGlobals: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.server, err = interp.Compile(p.cres.Server, interp.CompileConfig{
		Name: "server", Spec: srv, Std: mob,
		FuncBase: mem.FuncBaseServer, ShuffleFuncs: true, ShuffleGlobals: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// testEnv is one session over freshly bound instances of a pair.
type testEnv struct {
	pair   *pair
	link   *netsim.Link
	mobile *interp.Machine
	server *interp.Machine
	sess   *Session
	io     *interp.StdIO
}

// session binds a fresh session over the pair on the evaluation input.
func (p *pair) session(t *testing.T, link *netsim.Link, pol Policy, extra ...Option) *testEnv {
	t.Helper()
	env, err := p.newEnv(link, pol, extra...)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// newEnv is session for callers that take NewSession's refusal as an answer.
func (p *pair) newEnv(link *netsim.Link, pol Policy, extra ...Option) (*testEnv, error) {
	io := p.w.EvalIO()
	mobile := p.mobile.NewInstance(interp.WithIO(io), interp.WithCostScale(p.w.CostScale))
	server := p.server.NewInstance(interp.WithCostScale(p.w.CostScale))
	opts := append([]Option{WithTasks(p.tasks...), WithPolicy(pol)}, extra...)
	sess, err := NewSession(mobile, server, link, opts...)
	if err != nil {
		return nil, err
	}
	return &testEnv{pair: p, link: link, mobile: mobile, server: server, sess: sess, io: io}, nil
}

// setupFor partitions w for link and opens one session on it.
func setupFor(t *testing.T, w *workloads.Workload, link *netsim.Link, pol Policy, extra ...Option) *testEnv {
	t.Helper()
	return partition(t, w, link.BandwidthBps).session(t, link, pol, extra...)
}

// setup is setupFor over the suite's default guest (see buildHeavy).
func setup(t *testing.T, link *netsim.Link, pol Policy, extra ...Option) *testEnv {
	t.Helper()
	return setupFor(t, heavy, link, pol, extra...)
}

var pairs = map[string]*pair{}

// workloadPair partitions the named Table 4 workload on the scaled fast link
// (one binary pair serves both networks; only the runtime's dynamic
// estimation differs), once for the whole suite. Sessions over it take links
// scaled the same way (scaledLink).
func workloadPair(t testing.TB, name string) *pair {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("unknown workload %q", name)
	}
	if p := pairs[name]; p != nil {
		return p
	}
	p := partition(t, w, scaledLink(netsim.Fast80211AC()).BandwidthBps)
	pairs[name] = p
	return p
}

// scaledLink applies the Table 4 workload scale to a link preset.
func scaledLink(l *netsim.Link) *netsim.Link { return l.Scaled(workloads.Scale) }
