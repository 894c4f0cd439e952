package interp

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
)

// loopKernelModule builds the zero-allocation steady-state kernel: a
// parameterless function running a load/store/bin/branch loop over a
// global array, with no externs and no heap traffic.
func loopKernelModule(iters int64) *ir.Module {
	mod := ir.NewModule("kernel")
	b := ir.NewBuilder(mod)
	arr := b.GlobalVar("arr", ir.Array(ir.I64, 512))
	acc := b.GlobalVar("acc", ir.I64)
	b.NewFunc("kern", ir.I64)
	b.For("i", ir.Int64(0), ir.Int64(iters), ir.Int64(1), func(i ir.Value) {
		idx := b.And(i, ir.Int64(511))
		v := b.Load(b.Index(arr, idx))
		v = b.Add(b.Mul(v, ir.Int64(3)), i)
		v = b.Xor(v, b.Shr(v, ir.Int64(7)))
		b.Store(b.Index(arr, b.And(b.Add(i, ir.Int64(1)), ir.Int64(511))), v)
		b.If(b.Cmp(ir.NE, b.And(v, ir.Int64(1)), ir.Int64(0)),
			func() { b.Store(acc, b.Add(b.Load(acc), v)) },
			func() { b.Store(acc, b.Sub(b.Load(acc), i)) })
	})
	b.Ret(b.Load(acc))
	b.Finish()
	return mod
}

// callKernelModule builds the call/return kernel: a loop invoking a small
// two-argument callee, exercising the frame free list.
func callKernelModule(iters int64) *ir.Module {
	mod := ir.NewModule("callkernel")
	b := ir.NewBuilder(mod)
	acc := b.GlobalVar("acc", ir.I64)
	leaf := b.NewFunc("leaf", ir.I64, ir.P("x", ir.I64), ir.P("y", ir.I64))
	b.Ret(b.Add(b.Mul(leaf.Params[0], ir.Int64(31)), leaf.Params[1]))
	b.NewFunc("kern", ir.I64)
	b.For("i", ir.Int64(0), ir.Int64(iters), ir.Int64(1), func(i ir.Value) {
		v := b.Call(leaf, b.Load(acc), i)
		b.Store(acc, v)
	})
	b.Ret(b.Load(acc))
	b.Finish()
	return mod
}

func kernelMachine(t testing.TB, mod *ir.Module, eng Engine) (*Machine, *ir.Func) {
	t.Helper()
	return kernelMachineCfg(t, mod, CompileConfig{Name: "bench", Spec: arch.ARM32(), InitUVAGlobals: true}, eng)
}

func kernelMachineCfg(t testing.TB, mod *ir.Module, cfg CompileConfig, eng Engine) (*Machine, *ir.Func) {
	t.Helper()
	work := mod.Clone(mod.Name)
	ir.Lower(work, cfg.Spec, cfg.Spec)
	return bind(t, work, cfg, WithEngine(eng)), work.Func("kern")
}

// regionListener does what the cheapest footprint observer must: every
// function entry opens a region, so it invalidates the page caches to have
// the region's pages reported to Touch again. What is left of an instrumented
// run's cost is the engine's own.
type regionListener struct{ opened int }

func (l *regionListener) EnterFunc(m *Machine, _ *ir.Func)       { l.opened++; m.Mem.Invalidate() }
func (*regionListener) ExitFunc(*Machine, *ir.Func)              {}
func (*regionListener) EnterBlock(*Machine, *ir.Func, *ir.Block) {}

// TestFastEngineZeroAllocSteadyState asserts the fast engine allocates
// nothing per instruction once warm: loads, stores, binary ops and
// branches run entirely on the pre-decoded stream, the frame free list and
// the page-cache fast path (mirrors the PR-1 obs zero-alloc tests). The
// observed cells run the instrumented program with a Listener and a Touch
// observer attached: the hooks fire on every block and call, every page-cache
// fill is reported — again after each invalidation, never on a hit — and the
// engine stays on that same stream and page cache.
func TestFastEngineZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mod      *ir.Module
		observed bool
	}{
		{"load-store-bin-branch", loopKernelModule(256), false},
		{"call-return", callKernelModule(256), false},
		{"load-store-bin-branch/observed", loopKernelModule(256), true},
		{"call-return/observed", callKernelModule(256), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, kern := kernelMachineCfg(t, tc.mod, CompileConfig{
				Name: "bench", Spec: arch.ARM32(), InitUVAGlobals: true, Instrument: tc.observed}, EngineFast)
			touches, regions := 0, &regionListener{}
			if tc.observed {
				m.Listener = regions
				m.Mem.Touch = func(uint32) { touches++ }
			}
			if _, err := m.CallFunc(kern); err != nil { // warm: fault pages, fill pools
				t.Fatal(err)
			}
			touches, regions.opened = 0, 0
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := m.CallFunc(kern); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("fast engine steady state: %.1f allocs/run, want 0", allocs)
			}
			// Each region refills what its invalidation emptied — at least one
			// page a run, at most the kernels' four pages in both caches a
			// region — and the loop kernel's 256 iterations are one region.
			if tc.observed && (touches < 11 || touches > 8*regions.opened) {
				t.Errorf("Touch saw %d pages in %d regions over 11 steady-state runs", touches, regions.opened)
			}
		})
	}
}
