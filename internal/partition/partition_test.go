package partition

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ir/analysis"
	"repro/internal/mem"
)

// runMain lowers mod for ARM32 and runs main on one bound instance.
func runMain(t *testing.T, mod *ir.Module) int32 {
	t.Helper()
	spec := arch.ARM32()
	ir.Lower(mod, spec, spec)
	prog, err := interp.Compile(mod, interp.CompileConfig{Name: "m", Spec: spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	code, err := prog.NewInstance().RunMain()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// buildCaller creates: target(x) = x*2; caller() { a = target(21); return a+1 }
func buildCaller(t *testing.T) (*ir.Module, *ir.Func) {
	t.Helper()
	mod := ir.NewModule("p")
	b := ir.NewBuilder(mod)
	target := b.NewFunc("hot", ir.I32, ir.P("x", ir.I32))
	b.Ret(b.Mul(b.F.Params[0], ir.Int(2)))
	b.NewFunc("main", ir.I32)
	a := b.Call(target, ir.Int(21))
	b.Ret(b.Add(a, ir.Int(1)))
	b.Finish()
	return mod, target
}

func TestPartitionMobileInsertsGate(t *testing.T) {
	mod, target := buildCaller(t)
	n := PartitionMobile(mod, []Target{{TaskID: 1, Fn: target}})
	if n != 1 {
		t.Fatalf("rewrote %d sites, want 1", n)
	}
	if err := ir.Verify(mod); err != nil {
		t.Fatalf("partitioned module invalid: %v", err)
	}
	text := mod.String()
	for _, want := range []string{"no.gate", "no.offload", "call @hot", ".join"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// The gated binary still computes the same value locally.
	if code := runMain(t, mod); code != 43 {
		t.Errorf("gated local run = %d, want 43", code)
	}
}

func TestPartitionMobileMultipleSites(t *testing.T) {
	mod := ir.NewModule("p2")
	b := ir.NewBuilder(mod)
	target := b.NewFunc("hot", ir.I32, ir.P("x", ir.I32))
	b.Ret(b.Add(b.F.Params[0], ir.Int(1)))
	b.NewFunc("main", ir.I32)
	a := b.Call(target, ir.Int(1))
	c := b.Call(target, a)
	b.Ret(c)
	b.Finish()
	n := PartitionMobile(mod, []Target{{TaskID: 1, Fn: target}})
	if n != 2 {
		t.Fatalf("rewrote %d sites, want 2", n)
	}
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}
	if code := runMain(t, mod); code != 3 {
		t.Errorf("double-gated run = %d, want 3", code)
	}
}

func TestPartitionServerStructure(t *testing.T) {
	mod, target := buildCaller(t)
	removed, err := PartitionServer(mod, []Target{{TaskID: 7, Fn: target}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(mod); err != nil {
		t.Fatalf("server module invalid: %v", err)
	}
	if mod.StackBase != mem.ServerStackTop {
		t.Error("server stack not relocated")
	}
	if mod.Func("listenClient") == nil {
		t.Fatal("no listenClient")
	}
	text := mod.String()
	for _, want := range []string{"no.accept", "no.arg", "no.sendreturn", "cmp eq"} {
		if !strings.Contains(text, want) {
			t.Errorf("server text missing %q", want)
		}
	}
	_ = removed
}

func TestPartitionServerRemovesUnused(t *testing.T) {
	mod := ir.NewModule("p3")
	b := ir.NewBuilder(mod)
	target := b.NewFunc("hot", ir.I32, ir.P("x", ir.I32))
	helper := b.NewFunc("helper", ir.I32, ir.P("x", ir.I32))
	// target calls helper; orphan is only called from main.
	b.SetBlock(target.Entry())
	b.F = target
	b.Ret(b.Call(helper, b.Mul(target.Params[0], ir.Int(3))))
	b.F = helper
	b.SetBlock(helper.Entry())
	b.Ret(b.Add(helper.Params[0], ir.Int(1)))
	orphan := b.NewFunc("orphan", ir.I32)
	b.Ret(ir.Int(9))
	b.NewFunc("main", ir.I32)
	b.Call(orphan)
	b.Ret(b.Call(target, ir.Int(5)))
	b.Finish()

	removed, err := PartitionServer(mod, []Target{{TaskID: 1, Fn: target}})
	if err != nil {
		t.Fatal(err)
	}
	if mod.Func("orphan") != nil {
		t.Error("orphan should be removed from the server binary")
	}
	if mod.Func("helper") == nil {
		t.Error("helper is reachable from the target and must survive")
	}
	found := false
	for _, r := range removed {
		if r == "orphan" {
			found = true
		}
	}
	if !found {
		t.Errorf("removed = %v, want to include orphan", removed)
	}
}

func TestOutlineLoopExecutesEquivalently(t *testing.T) {
	build := func() *ir.Module {
		mod := ir.NewModule("o")
		b := ir.NewBuilder(mod)
		b.NewFunc("main", ir.I32)
		acc := b.Alloca(ir.I32)
		b.Store(acc, ir.Int(0))
		b.For("work", ir.Int(0), ir.Int(50), ir.Int(1), func(i ir.Value) {
			b.Store(acc, b.Add(b.Load(acc), b.Mul(i, i)))
		})
		b.Ret(b.Load(acc))
		b.Finish()
		return mod
	}
	run := func(mod *ir.Module) int32 { return runMain(t, mod) }
	want := run(build())

	mod := build()
	f := mod.Func("main")
	g, _ := analysis.BuildCFG(f)
	forest := analysis.FindLoops(g, analysis.Dominators(g))
	if len(forest.Loops) != 1 {
		t.Fatal("expected one loop")
	}
	out, err := OutlineLoop(mod, f, forest.Loops[0], g)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(mod); err != nil {
		t.Fatalf("outlined module invalid: %v", err)
	}
	if out.Nam != "main_work.cond" {
		t.Errorf("outlined name = %s", out.Nam)
	}
	if got := run(mod); got != want {
		t.Errorf("outlined run = %d, want %d", got, want)
	}
	// The loop body left main.
	for _, blk := range f.Blocks {
		if strings.HasPrefix(blk.Nam, "work.body") {
			t.Error("loop body block still in main")
		}
	}
}

func TestOutlineRejectsReturnInLoop(t *testing.T) {
	mod := ir.NewModule("r")
	b := ir.NewBuilder(mod)
	f := b.NewFunc("f", ir.I32, ir.P("n", ir.I32))
	b.For("l", ir.Int(0), f.Params[0], ir.Int(1), func(i ir.Value) {
		b.If(b.Cmp(ir.GT, i, ir.Int(3)), func() { b.Ret(i) }, nil)
	})
	b.Ret(ir.Int(0))
	b.Finish()
	g, _ := analysis.BuildCFG(f)
	forest := analysis.FindLoops(g, analysis.Dominators(g))
	if _, err := OutlineLoop(mod, f, forest.Loops[0], g); err == nil {
		t.Error("expected rejection of loop containing a return")
	}
}

func TestOutlineRejectsValueEscapingLoop(t *testing.T) {
	mod := ir.NewModule("e")
	b := ir.NewBuilder(mod)
	f := b.NewFunc("f", ir.I32, ir.P("n", ir.I32))
	var leak ir.Value
	b.For("l", ir.Int(0), f.Params[0], ir.Int(1), func(i ir.Value) {
		leak = b.Add(i, ir.Int(1)) // defined inside, used after the loop
	})
	b.Ret(leak)
	b.Finish()
	g, _ := analysis.BuildCFG(f)
	forest := analysis.FindLoops(g, analysis.Dominators(g))
	if _, err := OutlineLoop(mod, f, forest.Loops[0], g); err == nil {
		t.Error("expected rejection of loop whose value escapes")
	}
}

func TestDemotionMakesEscapingLoopOutlinable(t *testing.T) {
	build := func() *ir.Module {
		mod := ir.NewModule("esc")
		b := ir.NewBuilder(mod)
		f := b.NewFunc("main", ir.I32)
		var last ir.Value
		b.For("scan", ir.Int(0), ir.Int(37), ir.Int(1), func(i ir.Value) {
			last = b.Add(b.Mul(i, i), ir.Int(1)) // escapes the loop
		})
		b.Ret(b.Add(last, ir.Int(4)))
		_ = f
		b.Finish()
		return mod
	}
	run := func(mod *ir.Module) int32 { return runMain(t, mod) }
	want := run(build()) // 36*36+1+4 = 1301

	mod := build()
	f := mod.Func("main")
	g, _ := analysis.BuildCFG(f)
	forest := analysis.FindLoops(g, analysis.Dominators(g))
	loop := forest.Loops[0]

	// Without demotion the outline is rejected.
	if _, err := OutlineLoop(mod, f, loop, g); err == nil {
		t.Fatal("precondition: escaping loop should be rejected before demotion")
	}
	// Demote and retry.
	if n := DemoteEscapingValues(f, loop); n != 1 {
		t.Fatalf("demoted %d values, want 1", n)
	}
	out, err := OutlineLoop(mod, f, loop, g)
	if err != nil {
		t.Fatalf("outline after demotion: %v", err)
	}
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}
	if err := analysis.VerifyModuleSSA(mod); err != nil {
		t.Fatal(err)
	}
	if got := run(mod); got != want {
		t.Errorf("demoted+outlined run = %d, want %d", got, want)
	}
	if out.Sig.Ret != ir.Void {
		t.Error("outlined loop should be void (value flows through the stack slot)")
	}
}
