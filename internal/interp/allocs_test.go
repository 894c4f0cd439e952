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
	work := mod.Clone(mod.Name)
	spec := arch.ARM32()
	ir.Lower(work, spec, spec)
	m := bind(t, work, CompileConfig{Name: "bench", Spec: spec, InitUVAGlobals: true}, WithEngine(eng))
	return m, work.Func("kern")
}

// TestFastEngineZeroAllocSteadyState asserts the fast engine allocates
// nothing per instruction once warm: loads, stores, binary ops and
// branches run entirely on the pre-decoded stream, the frame free list and
// the page-cache fast path (mirrors the PR-1 obs zero-alloc tests).
func TestFastEngineZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  *ir.Module
	}{
		{"load-store-bin-branch", loopKernelModule(256)},
		{"call-return", callKernelModule(256)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, kern := kernelMachine(t, tc.mod, EngineFast)
			if _, err := m.CallFunc(kern); err != nil { // warm: fault pages, fill pools
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := m.CallFunc(kern); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("fast engine steady state: %.1f allocs/run, want 0", allocs)
			}
		})
	}
}
