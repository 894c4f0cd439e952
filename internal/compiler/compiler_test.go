package compiler

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/estimate"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ir/analysis"
	"repro/internal/profile"
	"repro/internal/workloads"
)

func chessProfileAndModule(t *testing.T) (*ir.Module, *profile.Report) {
	t.Helper()
	mod := workloads.BuildChess(workloads.DefaultChessConfig())
	prof := profileModule(t, mod, interp.WithIO(workloads.ChessInput(5, 2)), interp.WithCostScale(workloads.ChessCostScale))
	return mod, prof
}

// profileModule profiles a clone of mod on an ARM32 instance, as
// core.Framework.Profile does.
func profileModule(t *testing.T, mod *ir.Module, opts ...interp.InstanceOption) *profile.Report {
	t.Helper()
	work := mod.Clone("prof")
	spec := arch.ARM32()
	ir.Lower(work, spec, spec)
	prog, err := interp.Compile(work, interp.CompileConfig{Name: "prof", Spec: spec, InitUVAGlobals: true, Instrument: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Run(prog.NewInstance(opts...))
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// evalOptions is Default priced as core.Framework prices ARM32 -> x86-64
// on a 650 Mbps link (without the round-trip term).
func evalOptions() Options {
	return Default(estimate.Params{R: arch.PerformanceRatio(arch.ARM32(), arch.X8664()), BandwidthBps: 650_000_000})
}

func compileChess(t *testing.T) (*ir.Module, *Result) {
	t.Helper()
	mod, prof := chessProfileAndModule(t)
	res, err := Compile(mod, prof, evalOptions())
	if err != nil {
		t.Fatal(err)
	}
	return mod, res
}

func TestChessTargetSelection(t *testing.T) {
	_, res := compileChess(t)
	if len(res.Targets) == 0 {
		t.Fatal("no targets")
	}
	// getAITurn is the paper's selected target; runGame and main are
	// filtered (scanf), for_j-style inner candidates lose to nesting.
	if res.Targets[0].Name != "getAITurn" {
		t.Errorf("primary target = %s, want getAITurn", res.Targets[0].Name)
	}
	// The candidate report shows the machine-specific filtering.
	var sawRunGame, sawPlayer bool
	for _, c := range res.Candidates {
		switch c.Name {
		case "runGame":
			sawRunGame = true
			if !c.Machine {
				t.Error("runGame should be machine-specific (calls getPlayerTurn)")
			}
		case "getPlayerTurn":
			sawPlayer = true
			if !c.Machine || !strings.Contains(c.Reason, "scanf") {
				t.Errorf("getPlayerTurn reason = %q, want scanf taint", c.Reason)
			}
		}
	}
	if !sawRunGame || !sawPlayer {
		t.Error("candidate report incomplete")
	}
}

func TestChessPartitionShapes(t *testing.T) {
	_, res := compileChess(t)

	// Mobile binary: gate + offload around the getAITurn call site.
	mobileText := res.Mobile.String()
	for _, want := range []string{"no.gate", "no.offload", "getAITurn"} {
		if !strings.Contains(mobileText, want) {
			t.Errorf("mobile binary missing %q", want)
		}
	}
	// Server binary: listen loop, dispatch, remote printf, no
	// getPlayerTurn (unused function removal).
	serverText := res.Server.String()
	for _, want := range []string{"listenClient", "no.accept", "no.sendreturn", "r_printf"} {
		if !strings.Contains(serverText, want) {
			t.Errorf("server binary missing %q", want)
		}
	}
	if res.Server.Func("getPlayerTurn") != nil {
		t.Error("getPlayerTurn should be removed from the server binary")
	}
	removed := strings.Join(res.RemovedFuncs, " ")
	if !strings.Contains(removed, "getPlayerTurn") {
		t.Errorf("removed list %v should include getPlayerTurn", res.RemovedFuncs)
	}
	// Stack reallocation.
	if res.Server.StackBase == res.Mobile.StackBase {
		t.Error("server stack not reallocated away from the mobile stack")
	}
	// printf must NOT survive un-rewritten in server code reachable from
	// the target.
	if strings.Contains(serverText, "call @printf") {
		t.Error("server binary still calls local printf")
	}
}

func TestChessUnificationStatistics(t *testing.T) {
	_, res := compileChess(t)
	if res.ReferencedGVs == 0 {
		t.Error("chess references maxDepth/board/evals; ReferencedGVs should be > 0")
	}
	if res.ReferencedGVs > res.TotalGVs {
		t.Error("referenced globals exceed total")
	}
	if res.FptrUses == 0 {
		t.Error("chess uses the evals table; fptr uses should be counted")
	}
	if res.OptimizerReport.MappedFptrSites == 0 {
		t.Error("server indirect calls should be mapped")
	}
	if res.OptimizerReport.RemoteIOSites == 0 {
		t.Error("server printf sites should be rewritten to r_printf")
	}
	// All mallocs became u_malloc in both partitions.
	for _, m := range []*ir.Module{res.Mobile, res.Server} {
		text := m.String()
		if strings.Contains(text, "call @malloc") {
			t.Errorf("%s still calls plain malloc", m.Name)
		}
	}
	// Referenced globals have UVA homes.
	for _, name := range []string{"maxDepth", "board", "evals"} {
		g := res.Mobile.Global(name)
		if g == nil || g.Home != ir.HomeUVA {
			t.Errorf("global %s not reallocated to the UVA space", name)
		}
		sg := res.Server.Global(name)
		if sg == nil || sg.UVAAddr != g.UVAAddr {
			t.Errorf("global %s UVA homes disagree across binaries", name)
		}
	}
}

func TestCompileRejectsUnprofitable(t *testing.T) {
	// A trivially cheap program yields no profitable target.
	mod := ir.NewModule("tiny")
	b := ir.NewBuilder(mod)
	f := b.NewFunc("leaf", ir.I32)
	b.Ret(ir.Int(1))
	b.NewFunc("main", ir.I32)
	b.Ret(b.Call(f))
	b.Finish()

	prof := profileModule(t, mod)
	if _, err := Compile(mod, prof, evalOptions()); err == nil {
		t.Error("expected 'no profitable target' error")
	}
}

func TestCompileSummary(t *testing.T) {
	_, res := compileChess(t)
	s := res.Summary()
	for _, want := range []string{"getAITurn", "offloaded", "referenced"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestLoopTargetOutlined(t *testing.T) {
	// A program whose only hot region is a loop in main: the selector
	// must outline it (paper targets like main_for.cond in Table 4).
	mod := ir.NewModule("looper")
	b := ir.NewBuilder(mod)
	data := b.GlobalVar("data", ir.Ptr(ir.F64))
	b.NewFunc("main", ir.I32)
	raw := b.CallExtern(ir.ExternMalloc, ir.Int(8*2048))
	arr := b.Convert(ir.ConvBitcast, raw, ir.Ptr(ir.F64))
	b.Store(data, arr)
	b.For("for", ir.Int(0), ir.Int(400), ir.Int(1), func(i ir.Value) {
		b.For("inner", ir.Int(0), ir.Int(2048), ir.Int(1), func(j ir.Value) {
			p := b.Index(b.Load(data), j)
			v := b.Load(p)
			b.Store(p, b.Add(b.Mul(v, ir.Float(1.0001)), ir.Float(0.5)))
		})
	})
	b.CallExtern(ir.ExternPrintf, b.Str("done %f\n"), b.Load(b.Index(b.Load(data), ir.Int(7))))
	b.Ret(ir.Int(0))
	b.Finish()

	prof := profileModule(t, mod, interp.WithCostScale(4000))
	opt := evalOptions()
	res, err := Compile(mod, prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) == 0 || !res.Targets[0].IsLoop {
		t.Fatalf("expected a loop target, got %+v", res.Targets)
	}
	if !strings.HasPrefix(res.Targets[0].Name, "main_for") {
		t.Errorf("loop target name = %s, want main_for*", res.Targets[0].Name)
	}
	// The outlined function must exist in both partitions.
	if res.Mobile.Func(res.Targets[0].Name) == nil || res.Server.Func(res.Targets[0].Name) == nil {
		t.Error("outlined loop function missing from a partition")
	}
}

func TestPartitionedBinariesRoundTripThroughParser(t *testing.T) {
	// The compiler's output (gates, dispatch loop, remote I/O, mapped
	// fptr calls, UVA globals, task attributes) must survive a full
	// print -> parse cycle: this is what lets offloadc dumps be inspected
	// and re-executed.
	_, res := compileChess(t)
	opt := evalOptions()
	specs := map[*ir.Module]*arch.Spec{res.Mobile: opt.Mobile, res.Server: opt.Server}
	for _, m := range []*ir.Module{res.Mobile, res.Server} {
		text := m.String()
		parsed, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("%s: parse: %v", m.Name, err)
		}
		// The parser yields unlowered IR; re-lowering against the same
		// targets must reconstruct the identical binary.
		parsed.Name = m.Name
		ir.Lower(parsed, specs[m], opt.Mobile)
		if got := parsed.String(); got != text {
			t.Errorf("%s: roundtrip drift:\n--- printed ---\n%.600s\n--- reparsed ---\n%.600s", m.Name, text, got)
		}
		if parsed.StackBase != m.StackBase || parsed.Unified != m.Unified {
			t.Errorf("%s: module attributes lost", m.Name)
		}
	}
	// Task IDs survive.
	if res.Server.Func("getAITurn").TaskID == 0 {
		t.Fatal("precondition: server target has no task id")
	}
	parsed, err := ir.Parse(res.Server.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Func("getAITurn").TaskID != res.Server.Func("getAITurn").TaskID {
		t.Error("task id lost through parser")
	}
}

func TestPartitionedBinariesSatisfySSA(t *testing.T) {
	// Diamonds, outlining, and dispatch loops must keep the
	// def-dominates-use discipline the interpreter relies on.
	_, res := compileChess(t)
	for _, m := range []*ir.Module{res.Mobile, res.Server} {
		if err := analysis.VerifyModuleSSA(m); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}
