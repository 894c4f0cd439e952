package profile

import (
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

// bind compiles the lowered module and binds one instance.
func bind(t *testing.T, mod *ir.Module, name string, spec *arch.Spec) *interp.Machine {
	t.Helper()
	prog, err := interp.Compile(mod, interp.CompileConfig{Name: name, Spec: spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog.NewInstance()
}

func profiled(t *testing.T) *Report {
	t.Helper()
	mod := ir.NewModule("chess")
	buildChessSkeleton(mod)
	spec := arch.ARM32()
	ir.Lower(mod, spec, spec)
	r, err := Run(bind(t, mod, "prof", spec))
	if err != nil {
		t.Fatal(err)
	}
	return r
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
	mod := ir.NewModule("rec")
	b := ir.NewBuilder(mod)
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
	b.Finish()
	spec := arch.ARM32()
	ir.Lower(mod, spec, spec)
	r, err := Run(bind(t, mod, "rec", spec))
	if err != nil {
		t.Fatal(err)
	}
	fibStats := r.Get("fib")
	if fibStats.Invocations < 100 {
		t.Errorf("fib invocations = %d, want hundreds", fibStats.Invocations)
	}
	// Inclusive time of the recursive root must not exceed main's.
	if fibStats.Time > r.Get("main").Time {
		t.Errorf("recursive fib time %v exceeds main %v (double counting)", fibStats.Time, r.Get("main").Time)
	}
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
