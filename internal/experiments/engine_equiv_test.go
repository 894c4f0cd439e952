package experiments

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// engineResult captures everything the two engines must agree on for one
// standalone (non-offloaded) run of a program.
type engineResult struct {
	code   int32
	errStr string
	out    string
	steps  int64
	clock  simtime.PS
	comp   [interp.NumComponents]simtime.PS
	digest uint64
}

func runWorkloadEngine(t *testing.T, mod *ir.Module, io *interp.StdIO, costScale int64, eng interp.Engine) engineResult {
	t.Helper()
	work := mod.Clone(mod.Name)
	spec := arch.ARM32()
	ir.Lower(work, spec, spec)
	prog, err := interp.Compile(work, interp.CompileConfig{Name: "equiv", Spec: spec, InitUVAGlobals: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewInstance(interp.WithIO(io), interp.WithCostScale(costScale), interp.WithEngine(eng))
	var r engineResult
	r.code, err = m.RunMain()
	if err != nil {
		r.errStr = err.Error()
	}
	r.out = io.Out.String()
	r.steps = m.Steps
	r.clock = m.Clock
	r.comp = m.Comp
	r.digest = m.Mem.Digest(mem.StackRanges()...)
	return r
}

// equivProgram is one program of the whole-program differentials, on its
// profiling input.
type equivProgram struct {
	name      string
	mod       *ir.Module
	io        func() *interp.StdIO
	costScale int64
}

// equivPrograms lists every registered SPEC-like workload plus the chess
// running example.
func equivPrograms() []equivProgram {
	var progs []equivProgram
	for _, w := range workloads.All() {
		progs = append(progs, equivProgram{w.Name, w.Build(), w.ProfileIO, w.CostScale})
	}
	return append(progs, equivProgram{
		name:      "chess",
		mod:       workloads.BuildChess(workloads.DefaultChessConfig()),
		io:        func() *interp.StdIO { return workloads.ChessInput(5, 1) },
		costScale: workloads.ChessCostScale,
	})
}

// TestEngineEquivalenceAllWorkloads runs every registered SPEC-like workload
// plus the chess running example under both execution engines and demands
// bit-identical results: output, exit code, instruction count, simulated
// clock, per-component buckets, and the semantic memory digest. This is the
// "all example programs" leg of the differential acceptance criteria (the
// random-program leg lives in internal/interp).
func TestEngineEquivalenceAllWorkloads(t *testing.T) {
	t.Parallel()
	for _, p := range equivPrograms() {
		t.Run(p.name, func(t *testing.T) {
			fast := runWorkloadEngine(t, p.mod, p.io(), p.costScale, interp.EngineFast)
			ref := runWorkloadEngine(t, p.mod, p.io(), p.costScale, interp.EngineRef)
			if fast.errStr != ref.errStr {
				t.Fatalf("error mismatch:\n fast: %q\n  ref: %q", fast.errStr, ref.errStr)
			}
			if fast.code != ref.code {
				t.Errorf("exit code: fast %d, ref %d", fast.code, ref.code)
			}
			if fast.out != ref.out {
				t.Errorf("output mismatch:\n fast: %q\n  ref: %q", fast.out, ref.out)
			}
			if fast.steps != ref.steps {
				t.Errorf("steps: fast %d, ref %d", fast.steps, ref.steps)
			}
			if fast.clock != ref.clock {
				t.Errorf("clock: fast %v, ref %v", fast.clock, ref.clock)
			}
			if fast.comp != ref.comp {
				t.Errorf("component buckets: fast %v, ref %v", fast.comp, ref.comp)
			}
			if fast.digest != ref.digest {
				t.Errorf("memory digest: fast %#x, ref %#x", fast.digest, ref.digest)
			}
		})
	}
}
