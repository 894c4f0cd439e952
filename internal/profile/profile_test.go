package profile

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/interp"
	"repro/internal/ir"
)

// buildChessSkeleton builds the control structure of the paper's Figure 3
// chess example: main -> runGame -> {getPlayerTurn, getAITurn{for_i{for_j}}}
// with 3 game turns and depth 12 (so for_j runs 36 times, as in Table 3).
func buildChessSkeleton(mod *ir.Module) {
	b := ir.NewBuilder(mod)

	ai := b.NewFunc("getAITurn", ir.F64, ir.P("depth", ir.I32))
	score := b.Alloca(ir.F64)
	b.Store(score, ir.Float(0))
	b.For("for_i", ir.Int(0), b.F.Params[0], ir.Int(1), func(i ir.Value) {
		b.For("for_j", ir.Int(0), ir.Int(64), ir.Int(1), func(j ir.Value) {
			f := b.Convert(ir.ConvIntToFP, j, ir.F64)
			b.Store(score, b.Add(b.Load(score), b.Mul(f, f)))
		})
	})
	b.Ret(b.Load(score))

	player := b.NewFunc("getPlayerTurn", ir.I32)
	b.Ret(ir.Int(1))

	run := b.NewFunc("runGame", ir.F64)
	acc := b.Alloca(ir.F64)
	b.Store(acc, ir.Float(0))
	b.For("turns", ir.Int(0), ir.Int(3), ir.Int(1), func(i ir.Value) {
		b.Call(player)
		b.Store(acc, b.Add(b.Load(acc), b.Call(ai, ir.Int(12))))
	})
	b.Ret(b.Load(acc))

	b.NewFunc("main", ir.I32)
	b.Call(run)
	b.Ret(ir.Int(0))
	b.Finish()
}

// bind compiles the lowered module the way core.Framework.Profile does —
// instrumented, for the fast engine — and binds one instance.
func bind(t *testing.T, mod *ir.Module, name string, spec *arch.Spec) *interp.Machine {
	t.Helper()
	return bindCfg(t, mod, interp.CompileConfig{Name: name, Spec: spec, Instrument: true})
}

func bindCfg(t *testing.T, mod *ir.Module, cfg interp.CompileConfig, opts ...interp.InstanceOption) *interp.Machine {
	t.Helper()
	prog, err := interp.Compile(mod, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog.NewInstance(opts...)
}

// lowered builds a module and lowers it for ARM32.
func lowered(name string, build func(b *ir.Builder)) *ir.Module {
	mod := ir.NewModule(name)
	b := ir.NewBuilder(mod)
	build(b)
	b.Finish()
	spec := arch.ARM32()
	ir.Lower(mod, spec, spec)
	return mod
}

// onBothEngines profiles mod's main on an instrumented fast-engine machine
// and on a reference-engine machine of the plain program, requires the two
// reports to be deeply equal (page sets included) and every candidate to have
// been closed, and returns the fast one.
func onBothEngines(t *testing.T, mod *ir.Module) *Report {
	t.Helper()
	spec := arch.ARM32()
	run := func(m *interp.Machine) *Report {
		p, err := Attach(m)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Detach()
		if _, err := m.RunMain(); err != nil {
			t.Fatal(err)
		}
		if len(p.stack) != 0 {
			t.Errorf("%v engine: %d activations still live after the run", m.Engine, len(p.stack))
		}
		r := p.Report(m.Clock)
		for name, st := range r.ByName {
			if st.active != 0 {
				t.Errorf("%v engine: %s left with %d live activations", m.Engine, name, st.active)
			}
		}
		return r
	}
	fast := run(bindCfg(t, mod, interp.CompileConfig{Name: "p", Spec: spec, Instrument: true}))
	ref := run(bindCfg(t, mod, interp.CompileConfig{Name: "p", Spec: spec}, interp.WithEngine(interp.EngineRef)))
	if !reflect.DeepEqual(fast, ref) {
		t.Errorf("engines disagree:\nfast:\n%v\nref:\n%v", fast, ref)
	}
	return fast
}

func profiled(t *testing.T) *Report {
	t.Helper()
	mod := ir.NewModule("chess")
	buildChessSkeleton(mod)
	spec := arch.ARM32()
	ir.Lower(mod, spec, spec)
	return onBothEngines(t, mod)
}

func TestInvocationCounts(t *testing.T) {
	r := profiled(t)
	cases := map[string]int{
		"main":            1,
		"runGame":         1,
		"getAITurn":       3,
		"getPlayerTurn":   3,
		"getAITurn/for_i": 3,
		"getAITurn/for_j": 36, // 3 calls x 12 outer iterations — Table 3's 12x ratio
		"runGame/turns":   1,
	}
	for name, want := range cases {
		st := r.Get(name)
		if st == nil {
			t.Errorf("no stats for %s", name)
			continue
		}
		if st.Invocations != want {
			t.Errorf("%s invocations = %d, want %d", name, st.Invocations, want)
		}
	}
}

func TestTimeNesting(t *testing.T) {
	r := profiled(t)
	// Inclusive times must nest: main >= runGame >= getAITurn >= for_i >= for_j.
	chain := []string{"main", "runGame", "getAITurn", "getAITurn/for_i", "getAITurn/for_j"}
	for i := 0; i < len(chain)-1; i++ {
		outer, inner := r.Get(chain[i]), r.Get(chain[i+1])
		if outer.Time < inner.Time {
			t.Errorf("%s time %v < %s time %v", chain[i], outer.Time, chain[i+1], inner.Time)
		}
	}
	if r.Total < r.Get("main").Time {
		t.Error("total below main time")
	}
	// getAITurn dominates the program like the paper's 26.0s / 27.0s.
	if cov := r.Coverage("getAITurn"); cov < 0.80 {
		t.Errorf("getAITurn coverage = %.2f, want > 0.80", cov)
	}
}

func TestMemoryFootprint(t *testing.T) {
	r := profiled(t)
	if r.Get("getAITurn").Pages == 0 {
		t.Error("getAITurn touched no pages?")
	}
	if r.Get("getAITurn").MemBytes <= 0 {
		t.Error("MemBytes not derived")
	}
}

func TestSortedAndString(t *testing.T) {
	r := profiled(t)
	sorted := r.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Time < sorted[i].Time {
			t.Error("Sorted not descending by time")
		}
	}
	s := r.String()
	if !strings.Contains(s, "getAITurn") || !strings.Contains(s, "for_j") {
		t.Errorf("report string missing candidates:\n%s", s)
	}
}

func TestRecursionNotDoubleCounted(t *testing.T) {
	r := onBothEngines(t, lowered("rec", func(b *ir.Builder) {
		fib := b.NewFunc("fib", ir.I32, ir.P("n", ir.I32))
		res := b.Alloca(ir.I32)
		b.If(b.Cmp(ir.LT, b.F.Params[0], ir.Int(2)),
			func() { b.Store(res, b.F.Params[0]) },
			func() {
				a := b.Call(fib, b.Sub(b.F.Params[0], ir.Int(1)))
				c := b.Call(fib, b.Sub(b.F.Params[0], ir.Int(2)))
				b.Store(res, b.Add(a, c))
			})
		b.Ret(b.Load(res))
		b.NewFunc("main", ir.I32)
		b.Ret(b.Call(fib, ir.Int(12)))
	}))
	fibStats := r.Get("fib")
	if fibStats.Invocations < 100 {
		t.Errorf("fib invocations = %d, want hundreds", fibStats.Invocations)
	}
	// Inclusive time of the recursive root must not exceed main's.
	if fibStats.Time > r.Get("main").Time {
		t.Errorf("recursive fib time %v exceeds main %v (double counting)", fibStats.Time, r.Get("main").Time)
	}
}

// TestExitUnwindsEveryLiveRegion: exit() three frames deep, inside a loop at
// every level. The error unwinds through each frame, and on both engines the
// exit hook must fire on that path too, closing every live function and loop
// at the clock of the exit() call.
func TestExitUnwindsEveryLiveRegion(t *testing.T) {
	r := onBothEngines(t, lowered("unwind", func(b *ir.Builder) {
		cell := b.GlobalVar("cell", ir.I32)
		deep := b.NewFunc("deep", ir.I32, ir.P("n", ir.I32))
		b.For("spin", ir.Int(0), ir.Int(8), ir.Int(1), func(i ir.Value) {
			b.Store(cell, b.Add(b.Load(cell), i))
			b.If(b.Cmp(ir.EQ, i, b.F.Params[0]),
				func() { b.CallExtern(ir.ExternExit, ir.Int(7)) }, func() {})
		})
		b.Ret(ir.Int(0))
		mid := b.NewFunc("mid", ir.I32)
		b.For("m", ir.Int(0), ir.Int(4), ir.Int(1), func(i ir.Value) { b.Call(deep, b.Add(i, ir.Int(3))) })
		b.Ret(ir.Int(0))
		b.NewFunc("main", ir.I32)
		b.For("o", ir.Int(0), ir.Int(4), ir.Int(1), func(i ir.Value) { b.Call(mid) })
		b.Ret(ir.Int(0))
	}))
	for _, name := range []string{"main", "main/o", "mid", "mid/m", "deep", "deep/spin"} {
		st := r.Get(name)
		if st == nil || st.Invocations != 1 {
			t.Fatalf("%s: stats %+v, want exactly one invocation", name, st)
		}
		if st.Time <= 0 || st.Pages == 0 {
			t.Errorf("%s: time %v pages %d — region was never closed", name, st.Time, st.Pages)
		}
	}
	if r.Get("main").Time != r.Total {
		t.Errorf("main %v != total %v: exit() left time unattributed", r.Get("main").Time, r.Total)
	}
}

// TestAttachNeedsInstrumentedProgram: a fast-engine machine of a plain
// program has no block hooks, so attaching must fail loudly rather than
// observe nothing; the reference engine serves a Listener on any program.
func TestAttachNeedsInstrumentedProgram(t *testing.T) {
	mod := lowered("d", func(b *ir.Builder) {
		b.NewFunc("main", ir.I32)
		b.Ret(ir.Int(0))
	})
	plain := interp.CompileConfig{Name: "d", Spec: arch.ARM32()}
	m := bindCfg(t, mod, plain)
	if _, err := Attach(m); err == nil || !strings.Contains(err.Error(), "Instrument") {
		t.Errorf("Attach on a plain fast-engine machine: err = %v, want the missing-hooks error", err)
	}
	if m.Listener != nil || m.Mem.Touch != nil {
		t.Error("failed Attach installed hooks")
	}
	if _, err := Run(m); err == nil {
		t.Error("Run on a plain fast-engine machine succeeded")
	}
	p, err := Attach(bindCfg(t, mod, plain, interp.WithEngine(interp.EngineRef)))
	if err != nil {
		t.Fatalf("Attach on a reference-engine machine: %v", err)
	}
	p.Detach()
}

func TestDetachRestoresMachine(t *testing.T) {
	mod := ir.NewModule("d")
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	b.Ret(ir.Int(0))
	b.Finish()
	spec := arch.ARM32()
	ir.Lower(mod, spec, spec)
	m := bind(t, mod, "d", spec)
	p, err := Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	p.Detach()
	if m.Listener != nil || m.Mem.Touch != nil {
		t.Error("Detach left hooks installed")
	}
}

func TestSelfTimeExcludesCallees(t *testing.T) {
	r := profiled(t)
	run := r.Get("runGame")
	ai := r.Get("getAITurn")
	// runGame's inclusive time contains getAITurn, but its self time must
	// not: the turn loop's own bookkeeping is a sliver of the program.
	if run.SelfTime >= ai.Time {
		t.Errorf("runGame self %v should be far below getAITurn inclusive %v", run.SelfTime, ai.Time)
	}
	if run.SelfTime <= 0 {
		t.Error("runGame must have some self time (its own loop control)")
	}
	// A leaf's self time equals its inclusive time.
	leaf := r.Get("getPlayerTurn")
	if leaf.SelfTime != leaf.Time {
		t.Errorf("leaf self %v != inclusive %v", leaf.SelfTime, leaf.Time)
	}
	// Self times of all functions sum to main's inclusive time.
	var sum int64
	for _, st := range r.ByName {
		if st.Candidate.Kind == KindFunc {
			sum += int64(st.SelfTime)
		}
	}
	if main := r.Get("main"); int64(main.Time) != sum {
		t.Errorf("self-time sum %d != main inclusive %d", sum, int64(main.Time))
	}
}

// everyLiveRegion is the page accounting the profiler used before it recorded
// a touch only in the innermost live region, kept as the reference for it:
// the page counts, immediately, for every live activation and every live
// loop. (It adds straight to the candidate's union, which is what those
// regions' private sets amounted to once they closed.)
func everyLiveRegion(p *Profiler, want map[*Stats]map[uint32]struct{}, pn uint32) {
	add := func(st *Stats) {
		if want[st] == nil {
			want[st] = make(map[uint32]struct{})
		}
		want[st][pn] = struct{}{}
	}
	for i := range p.stack {
		add(p.stack[i].stats)
		for j := range p.stack[i].loops {
			add(p.stack[i].loops[j].stats)
		}
	}
}

// TestPageAccountingMatchesEveryLiveRegion drives the profiler's hooks with
// random traces — calls and returns up to eight deep (recursion included),
// jumps to arbitrary blocks (opening and closing up to three nested loops at
// a time), page touches with the repeats and two-page alternations real code
// produces — and holds every candidate's footprint to the reference.
func TestPageAccountingMatchesEveryLiveRegion(t *testing.T) {
	mod := lowered("trace", func(b *ir.Builder) {
		cell := b.GlobalVar("cell", ir.I32)
		bump := func() { b.Store(cell, b.Add(b.Load(cell), ir.Int(1))) }
		b.NewFunc("leaf", ir.I32)
		b.Ret(ir.Int(0))
		b.NewFunc("flat", ir.I32)
		b.For("a", ir.Int(0), ir.Int(2), ir.Int(1), func(ir.Value) { bump() })
		b.For("b", ir.Int(0), ir.Int(2), ir.Int(1), func(ir.Value) { bump() })
		b.Ret(ir.Int(0))
		b.NewFunc("nest", ir.I32)
		b.For("x", ir.Int(0), ir.Int(2), ir.Int(1), func(ir.Value) {
			b.For("y", ir.Int(0), ir.Int(2), ir.Int(1), func(ir.Value) {
				b.For("z", ir.Int(0), ir.Int(2), ir.Int(1), func(ir.Value) { bump() })
				bump()
			})
			b.For("w", ir.Int(0), ir.Int(2), ir.Int(1), func(ir.Value) { bump() })
		})
		b.Ret(ir.Int(0))
		b.NewFunc("main", ir.I32)
		b.Ret(ir.Int(0))
	})
	var funcs []*ir.Func
	for _, f := range mod.Funcs {
		if !f.IsExtern() {
			funcs = append(funcs, f)
		}
	}
	prog, err := interp.Compile(mod, interp.CompileConfig{Name: "trace", Spec: arch.ARM32(), Instrument: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := prog.NewInstance()
		p, err := Attach(m)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[*Stats]map[uint32]struct{})
		var live []*ir.Func
		var page uint32
		call := func() {
			f := funcs[rng.Intn(len(funcs))]
			live = append(live, f)
			p.EnterFunc(m, f)
			p.EnterBlock(m, f, f.Entry())
		}
		ret := func() {
			p.ExitFunc(m, live[len(live)-1])
			live = live[:len(live)-1]
		}
		for ev := 0; ev < 400; ev++ {
			m.Clock += 1000
			switch k := rng.Intn(10); {
			case len(live) == 0 || (k == 0 && len(live) < 8):
				call()
			case k == 1:
				ret()
			case k <= 4:
				f := live[len(live)-1]
				p.EnterBlock(m, f, f.Blocks[rng.Intn(len(f.Blocks))])
			default:
				switch rng.Intn(4) {
				case 0: // a new page
					page = uint32(rng.Intn(24))
				case 1: // alternate with a neighbour
					page ^= 1
				}
				p.onTouch(page)
				everyLiveRegion(p, want, page)
			}
		}
		for len(live) > 0 {
			ret()
		}
		p.Detach()
		check := func(st *Stats) {
			if st.Pages != len(want[st]) || st.pageSet.len() != len(want[st]) {
				t.Fatalf("seed %d: %s: %d pages (set of %d), reference %d",
					seed, st.Candidate.Name(), st.Pages, st.pageSet.len(), len(want[st]))
			}
			for pn := range want[st] {
				if !st.pageSet.has(pn) {
					t.Fatalf("seed %d: %s: page %d missing", seed, st.Candidate.Name(), pn)
				}
			}
		}
		for _, st := range p.funcStats {
			check(st)
		}
		for _, st := range p.loopStats {
			check(st)
		}
	}
}

// TestPageSetMatchesMap holds the profiler's sparse page bitset to a plain
// map: random adds and unions — sets that share spans, that interleave, and
// that hold spans the other lacks on either side — with pages spread over
// many 64-page spans, comparing membership, size and the count union returns.
func TestPageSetMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		page := func() uint32 { return uint32(rng.Intn(12))*64*uint32(1+rng.Intn(3)) + uint32(rng.Intn(64)) }
		var sets [3]pageSet
		var want [3]map[uint32]struct{}
		for i := range want {
			want[i] = make(map[uint32]struct{})
		}
		for op := 0; op < 60; op++ {
			d := rng.Intn(3)
			if rng.Intn(4) > 0 {
				pn := page()
				sets[d].add(pn)
				want[d][pn] = struct{}{}
			} else {
				s := rng.Intn(3)
				if s == d {
					continue
				}
				before := len(want[d])
				for pn := range want[s] {
					want[d][pn] = struct{}{}
				}
				if added := sets[d].union(sets[s]); added != len(want[d])-before {
					t.Fatalf("seed %d op %d: union added %d pages, reference %d", seed, op, added, len(want[d])-before)
				}
			}
			for i := range sets {
				for j := 1; j < len(sets[i]); j++ {
					if sets[i][j-1].key >= sets[i][j].key {
						t.Fatalf("seed %d op %d: set %d's spans are out of order", seed, op, i)
					}
				}
				if sets[i].len() != len(want[i]) {
					t.Fatalf("seed %d op %d: set %d holds %d pages, reference %d", seed, op, i, sets[i].len(), len(want[i]))
				}
				for pn := range want[i] {
					if !sets[i].has(pn) {
						t.Fatalf("seed %d op %d: set %d lacks page %d", seed, op, i, pn)
					}
				}
			}
		}
	}
}
