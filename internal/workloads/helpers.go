package workloads

import (
	"fmt"

	"repro/internal/ir"
)

// kb/mb express scaled footprints tersely.
const (
	kb = 1024
	mb = 1024 * 1024
)

// emitReadFile emits fopen/fread/fclose filling a fresh heap buffer of the
// given size from the named (synthetic) input file, the way SPEC programs
// slurp their reference inputs. It returns the raw *i8 buffer value.
func emitReadFile(b *ir.Builder, name string, size int64) ir.Value {
	buf := b.CallExtern(ir.ExternMalloc, ir.Int(size))
	fd := b.CallExtern(ir.ExternFileOpen, b.Str(name))
	b.CallExtern(ir.ExternFileRead, fd, buf, ir.Int(size))
	b.CallExtern(ir.ExternFileClose, fd)
	return buf
}

// funcTable declares n functions named prefix0..prefixN-1, each computing a
// distinct affine transform of an i64 argument, and returns the global
// function-pointer table plus its shared signature. These model SPEC's
// dispatch tables (mesa's rasterization stages, h264ref's SAD variants,
// gobmk's command table, sjeng's evalRoutines).
func funcTable(b *ir.Builder, prefix string, n int) (*ir.Global, *ir.FuncType) {
	sig := ir.Signature(ir.I64, ir.I64)
	funcs := make([]ir.Value, n)
	for i := 0; i < n; i++ {
		f := b.NewFunc(fmt.Sprintf("%s%d", prefix, i), ir.I64, ir.P("x", ir.I64))
		v := b.Mul(f.Params[0], ir.Int64(int64(2*i+3)))
		b.Ret(b.Add(v, ir.Int64(int64(i*7+1))))
		funcs[i] = f
	}
	tbl := b.GlobalVar(prefix+"_tbl", ir.Array(ir.Ptr(sig), n), funcs...)
	return tbl, sig
}

// floatTable is funcTable for f64 kernels (ammp's potential functions).
func floatTable(b *ir.Builder, prefix string, n int) (*ir.Global, *ir.FuncType) {
	sig := ir.Signature(ir.F64, ir.F64)
	funcs := make([]ir.Value, n)
	for i := 0; i < n; i++ {
		f := b.NewFunc(fmt.Sprintf("%s%d", prefix, i), ir.F64, ir.P("x", ir.F64))
		v := b.Mul(f.Params[0], ir.Float(1.0+float64(float64(i)*0.125)))
		b.Ret(b.Add(v, ir.Float(float64(i)*0.5)))
		funcs[i] = f
	}
	tbl := b.GlobalVar(prefix+"_tbl", ir.Array(ir.Ptr(sig), n), funcs...)
	return tbl, sig
}

// scanRounds emits the "scanf rounds" prologue every workload main uses so
// the profiling input and the evaluation input can differ (the paper uses
// different inputs for profiling and evaluation).
func scanRounds(b *ir.Builder) ir.Value {
	r := b.Alloca(ir.I32)
	b.CallExtern(ir.ExternScanf, b.Str("%d"), r)
	return b.Load(r)
}

// dispatchEvery models realistic function-pointer usage: the table is
// consulted when (i & mask) == 0 and a common-case inline path runs
// otherwise. Table 4's fptr-heavy programs (gobmk, sjeng, h264ref) use
// small masks — they really do dereference per node/macroblock — while the
// others dispatch rarely, which is why only those three show visible
// translation overhead in Figure 7.
func dispatchEvery(b *ir.Builder, i ir.Value, mask int64, tbl *ir.Global, sig *ir.FuncType, idx ir.Value, x ir.Value) ir.Value {
	r := b.Alloca(sig.Ret)
	b.If(b.Cmp(ir.EQ, b.And(i, ir.Int(mask)), ir.Int(0)), func() {
		fp := b.Load(b.Index(tbl, idx))
		b.Store(r, b.CallPtr(fp, sig, x))
	}, func() {
		if _, isF := sig.Ret.(*ir.FloatType); isF {
			b.Store(r, b.Add(b.Mul(x, ir.Float(1.25)), ir.Float(0.5)))
		} else {
			b.Store(r, b.Add(b.Mul(x, ir.Int64(3)), ir.Int64(1)))
		}
	})
	return b.Load(r)
}
