package interp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/simtime"
)

// engineRun captures everything the two engines must agree on.
type engineRun struct {
	code   int32
	errStr string
	out    string
	steps  int64
	clock  simtime.PS
	comp   [NumComponents]simtime.PS
	digest uint64
}

// observe runs main on m (bound to a *StdIO) and captures the observation.
func observe(m *Machine) engineRun {
	r := engineRun{}
	code, err := m.RunMain()
	r.code = code
	if err != nil {
		r.errStr = err.Error()
	}
	r.out = m.IO.(*StdIO).Out.String()
	r.steps = m.Steps
	r.clock = m.Clock
	r.comp = m.Comp
	r.digest = m.Mem.Digest(mem.StackRanges()...)
	return r
}

// runEngines executes mod under both engines on the given spec/std pair
// and returns the two observations. The module is cloned per run so each
// machine lowers and links a private copy.
func runEngines(t *testing.T, mod *ir.Module, spec, std *arch.Spec, costScale int64) (fast, ref engineRun) {
	t.Helper()
	one := func(eng Engine) engineRun {
		work := mod.Clone(mod.Name + "-" + eng.String())
		ir.Lower(work, spec, std)
		return observe(bind(t, work, CompileConfig{Name: "diff", Spec: spec, Std: std, InitUVAGlobals: true},
			WithIO(NewStdIO(nil)), WithCostScale(costScale), WithEngine(eng)))
	}
	return one(EngineFast), one(EngineRef)
}

func compareRuns(t *testing.T, label string, fast, ref engineRun) {
	t.Helper()
	if fast.errStr != ref.errStr {
		t.Errorf("%s: error mismatch: fast=%q ref=%q", label, fast.errStr, ref.errStr)
		return
	}
	if fast.code != ref.code {
		t.Errorf("%s: exit code: fast=%d ref=%d", label, fast.code, ref.code)
	}
	if fast.out != ref.out {
		t.Errorf("%s: output: fast=%q ref=%q", label, fast.out, ref.out)
	}
	if fast.steps != ref.steps {
		t.Errorf("%s: steps: fast=%d ref=%d", label, fast.steps, ref.steps)
	}
	if fast.clock != ref.clock {
		t.Errorf("%s: clock: fast=%v ref=%v (delta %v)", label, fast.clock, ref.clock, fast.clock-ref.clock)
	}
	if fast.comp != ref.comp {
		t.Errorf("%s: component buckets: fast=%v ref=%v", label, fast.comp, ref.comp)
	}
	if fast.digest != ref.digest {
		t.Errorf("%s: memory digest: fast=%#x ref=%#x", label, fast.digest, ref.digest)
	}
}

// diffSpecs is the arch matrix the differential tests sweep: conventional
// lowering on the three modelled ISAs, plus the unified (Std = mobile)
// lowering used by the offload runtime, including the big-endian slow path.
func diffSpecs() [](struct{ spec, std *arch.Spec }) {
	arm, x86, ppc := arch.ARM32(), arch.X8664(), arch.POWER32BE()
	return [](struct{ spec, std *arch.Spec }){
		{arm, arm},
		{x86, x86},
		{ppc, ppc},
		{x86, arm}, // unified server lowering: Widen set on pointer accesses
		{ppc, arm}, // big-endian machine on little-endian standard: Swap set
	}
}

// genProgram builds a seeded random program exercising every opcode
// family: narrow/wide integer and float memory traffic, all binary ops
// (division guarded non-zero), all compare predicates, struct field and
// array index addressing, conversions, direct, indirect and extern calls,
// loops and branches.
func genProgram(seed int64) *ir.Module {
	r := rand.New(rand.NewSource(seed))
	mod := ir.NewModule(fmt.Sprintf("gen%d", seed))
	b := ir.NewBuilder(mod)

	st := ir.Struct(fmt.Sprintf("pair%d", seed),
		ir.StructField{Name: "a", Type: ir.I32},
		ir.StructField{Name: "b", Type: ir.I64},
		ir.StructField{Name: "c", Type: ir.F64},
	)

	initInts := make([]ir.Value, 64)
	for i := range initInts {
		initInts[i] = ir.Int64(r.Int63() - r.Int63())
	}
	arr := b.GlobalVar("arr", ir.Array(ir.I64, 64), initInts...)
	initFloats := make([]ir.Value, 16)
	for i := range initFloats {
		initFloats[i] = ir.Float(r.NormFloat64() * 1000)
	}
	farr := b.GlobalVar("farr", ir.Array(ir.F64, 16), initFloats...)
	narrow := b.GlobalVar("narrow", ir.Array(ir.I8, 32))
	words := b.GlobalVar("words", ir.Array(ir.I32, 32))
	f32s := b.GlobalVar("f32s", ir.Array(ir.F32, 8))
	pair := b.GlobalVar("pair", st)
	fptr := b.GlobalVar("fptr", ir.Ptr(ir.I8))

	// mix: a random straight-line integer function, also used as the
	// indirect-call target.
	mix := b.NewFunc("mix", ir.I64, ir.P("x", ir.I64), ir.P("y", ir.I64))
	{
		x, y := ir.Value(mix.Params[0]), ir.Value(mix.Params[1])
		for i := 0; i < 4+r.Intn(8); i++ {
			switch r.Intn(10) {
			case 0:
				x = b.Add(x, y)
			case 1:
				x = b.Sub(x, b.Xor(y, ir.Int64(r.Int63())))
			case 2:
				x = b.Mul(x, ir.Int64(r.Int63n(1000)-500))
			case 3:
				x = b.Div(x, b.Or(y, ir.Int64(1)))
			case 4:
				x = b.Rem(x, b.Or(b.And(y, ir.Int64(1023)), ir.Int64(5)))
			case 5:
				x = b.Shl(x, b.And(y, ir.Int64(63)))
			case 6:
				x = b.Shr(x, ir.Int64(r.Int63n(64)))
			case 7:
				x = b.Convert(ir.ConvTrunc, x, []ir.Type{ir.I8, ir.I16, ir.I32}[r.Intn(3)])
				x = b.Convert(ir.ConvSExt, x, ir.I64)
			case 8:
				pred := []ir.CmpPred{ir.EQ, ir.NE, ir.LT, ir.LE, ir.GT, ir.GE}[r.Intn(6)]
				c := b.Cmp(pred, x, y)
				x = b.Add(x, b.Convert(ir.ConvZExt, c, ir.I64))
			default:
				x, y = b.Xor(x, y), x
			}
		}
		b.Ret(x)
	}

	// fmix: float pipeline with conversions both ways.
	fmix := b.NewFunc("fmix", ir.F64, ir.P("v", ir.F64), ir.P("k", ir.I64))
	{
		v := ir.Value(fmix.Params[0])
		k := b.Convert(ir.ConvIntToFP, fmix.Params[1], ir.F64)
		for i := 0; i < 2+r.Intn(4); i++ {
			switch r.Intn(5) {
			case 0:
				v = b.Bin(ir.Add, v, k)
			case 1:
				v = b.Bin(ir.Mul, v, ir.Float(1+r.Float64()))
			case 2:
				v = b.Bin(ir.Sub, v, ir.Float(r.NormFloat64()*10))
			case 3:
				v = b.Bin(ir.Div, v, ir.Float(1.5+r.Float64()))
			default:
				v = b.Convert(ir.ConvFPTrunc, v, ir.F32)
				v = b.Convert(ir.ConvFPExt, v, ir.F64)
			}
		}
		b.Ret(v)
	}

	main := b.NewFunc("main", ir.I32)
	_ = main
	accp := b.Alloca(ir.I64)
	b.Store(accp, ir.Int64(int64(seed)))
	faccp := b.Alloca(ir.F64)
	b.Store(faccp, ir.Float(float64(seed%97)))
	b.Store(fptr, b.Convert(ir.ConvBitcast, b.FuncAddr(mix), ir.Ptr(ir.I8)))
	b.Store(b.Field(pair, 0), ir.Int(int64(r.Int31())))
	b.Store(b.Field(pair, 1), ir.Int64(r.Int63()))
	b.Store(b.Field(pair, 2), ir.Float(r.NormFloat64()))

	iters := int64(16 + r.Intn(32))
	b.For("loop", ir.Int64(0), ir.Int64(iters), ir.Int64(1), func(i ir.Value) {
		acc := b.Load(accp)
		v := b.Load(b.Index(arr, b.And(i, ir.Int64(63))))
		v = b.Call(mix, v, i)
		b.Store(b.Index(arr, b.And(b.Add(b.Mul(i, ir.Int64(7)), ir.Int64(int64(r.Intn(64)))), ir.Int64(63))), v)

		// Narrow memory traffic: i8 and i32 arrays round-trip through
		// sign-extension on load.
		b.Store(b.Index(narrow, b.And(i, ir.Int64(31))), b.Convert(ir.ConvTrunc, v, ir.I8))
		n8 := b.Convert(ir.ConvSExt, b.Load(b.Index(narrow, b.And(acc, ir.Int64(31)))), ir.I64)
		b.Store(b.Index(words, b.And(i, ir.Int64(31))), b.Convert(ir.ConvTrunc, acc, ir.I32))
		n32 := b.Convert(ir.ConvSExt, b.Load(b.Index(words, b.And(i, ir.Int64(31)))), ir.I64)

		// Struct field traffic.
		pb := b.Load(b.Field(pair, 1))
		b.Store(b.Field(pair, 1), b.Add(pb, v))

		// Indirect call through the stored function pointer.
		fp := b.Load(fptr)
		ind := b.CallPtr(b.Convert(ir.ConvBitcast, fp, ir.Ptr(mix.Sig)), mix.Sig, acc, i)

		acc = b.Add(acc, b.Xor(b.Add(n8, n32), ind))
		b.If(b.Cmp(ir.NE, b.And(v, ir.Int64(1)), ir.Int64(0)),
			func() { b.Store(accp, b.Add(acc, v)) },
			func() { b.Store(accp, b.Sub(acc, ir.Int64(int64(r.Intn(1_000_000))))) })

		// Float path with an f32 spill.
		fv := b.Load(b.Index(farr, b.And(i, ir.Int64(15))))
		fv = b.Call(fmix, fv, i)
		b.Store(b.Index(f32s, b.And(i, ir.Int64(7))), b.Convert(ir.ConvFPTrunc, fv, ir.F32))
		back := b.Convert(ir.ConvFPExt, b.Load(b.Index(f32s, b.And(i, ir.Int64(7)))), ir.F64)
		b.Store(b.Index(farr, b.And(i, ir.Int64(15))), back)
		b.Store(faccp, b.Bin(ir.Add, b.Load(faccp), b.Convert(ir.ConvIntToFP, b.Convert(ir.ConvFPToInt, back, ir.I64), ir.F64)))
	})

	b.CallExtern(ir.ExternPrintf, b.Str("acc=%d pair=%d f=%f\n"),
		b.Load(accp), b.Load(b.Field(pair, 1)), b.Load(faccp))
	b.Ret(ir.Int(int64(seed % 7)))
	b.Finish()
	return mod
}

// diffCell is one program on one arch binding of the hook- and
// observer-level differentials.
type diffCell struct {
	label     string
	mod       *ir.Module
	spec, std *arch.Spec
}

// diffCells lists the seeded random programs on every arch binding of
// diffSpecs, plus the trapping programs on ARM32.
func diffCells(seeds int) []diffCell {
	var cells []diffCell
	for seed := 0; seed < seeds; seed++ {
		mod := genProgram(int64(seed))
		for _, sp := range diffSpecs() {
			cells = append(cells, diffCell{fmt.Sprintf("seed=%d %s/std=%s", seed, sp.spec.Name, sp.std.Name), mod, sp.spec, sp.std})
		}
	}
	arm := arch.ARM32()
	for name, mod := range errorPrograms() {
		cells = append(cells, diffCell{name, mod, arm, arm})
	}
	return cells
}

// TestEngineDifferentialRandomPrograms drives >=100 seeded random programs
// through the fast and reference engines across the arch matrix, asserting
// identical output, exit code, Steps, Clock, component buckets and
// stack-excluded memory digest.
func TestEngineDifferentialRandomPrograms(t *testing.T) {
	seeds := 110
	if testing.Short() {
		seeds = 25
	}
	specs := diffSpecs()
	for seed := 0; seed < seeds; seed++ {
		mod := genProgram(int64(seed))
		for _, sp := range specs {
			label := fmt.Sprintf("seed=%d %s/std=%s", seed, sp.spec.Name, sp.std.Name)
			fast, ref := runEngines(t, mod, sp.spec, sp.std, 1)
			compareRuns(t, label, fast, ref)
			if t.Failed() {
				t.Fatalf("%s: engines diverged", label)
			}
		}
	}
}

// errorPrograms are the trapping programs of the differentials: a fault in
// main, exit() in main, and a divide trap two calls down inside a loop, whose
// error unwinds through live frames.
func errorPrograms() map[string]*ir.Module {
	build := func(f func(b *ir.Builder)) *ir.Module {
		mod := ir.NewModule("trap")
		b := ir.NewBuilder(mod)
		f(b)
		b.Finish()
		return mod
	}
	inMain := func(f func(b *ir.Builder)) *ir.Module {
		return build(func(b *ir.Builder) {
			b.NewFunc("main", ir.I32)
			f(b)
		})
	}
	return map[string]*ir.Module{
		"div-zero": inMain(func(b *ir.Builder) {
			p := b.Alloca(ir.I64)
			b.Store(p, ir.Int64(0))
			b.Ret(b.Convert(ir.ConvTrunc, b.Div(ir.Int64(7), b.Load(p)), ir.I32))
		}),
		"rem-zero": inMain(func(b *ir.Builder) {
			p := b.Alloca(ir.I64)
			b.Store(p, ir.Int64(0))
			b.Ret(b.Convert(ir.ConvTrunc, b.Rem(ir.Int64(7), b.Load(p)), ir.I32))
		}),
		"exit": inMain(func(b *ir.Builder) {
			b.CallExtern(ir.ExternExit, ir.Int(41))
			b.Ret(ir.Int(0))
		}),
		"nested-trap": build(func(b *ir.Builder) {
			inner := b.NewFunc("inner", ir.I64, ir.P("d", ir.I64))
			b.Ret(b.Div(ir.Int64(100), inner.Params[0]))
			outer := b.NewFunc("outer", ir.I64, ir.P("n", ir.I64))
			acc := b.Alloca(ir.I64)
			b.Store(acc, ir.Int64(0))
			b.For("down", ir.Int64(0), ir.Int64(8), ir.Int64(1), func(i ir.Value) {
				b.Store(acc, b.Add(b.Load(acc), b.Call(inner, b.Sub(outer.Params[0], i))))
			})
			b.Ret(b.Load(acc))
			b.NewFunc("main", ir.I32)
			b.Ret(b.Convert(ir.ConvTrunc, b.Call(outer, ir.Int64(5)), ir.I32))
		}),
	}
}

// TestEngineDifferentialErrors pins error equivalence: both engines must
// produce the same error text, step count and clock for trapping programs.
func TestEngineDifferentialErrors(t *testing.T) {
	arm := arch.ARM32()
	for name, mod := range errorPrograms() {
		fast, ref := runEngines(t, mod, arm, arm, 1)
		compareRuns(t, name, fast, ref)
	}
}

// TestEngineDifferentialCostScale checks the aggregate segment charge
// scales exactly like per-instruction charging under CostScale
// amplification.
func TestEngineDifferentialCostScale(t *testing.T) {
	mod := genProgram(4242)
	arm := arch.ARM32()
	for _, scale := range []int64{1, 10, 1000} {
		fast, ref := runEngines(t, mod, arm, arm, scale)
		compareRuns(t, fmt.Sprintf("scale=%d", scale), fast, ref)
	}
}
