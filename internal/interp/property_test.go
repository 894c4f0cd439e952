package interp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/ir"
)

// TestRandomIntExpressionsMatchGo is a differential property test: random
// integer expression DAGs are evaluated both by the Go compiler (the
// reference semantics) and by the IR interpreter on every modelled
// architecture; results must agree bit for bit. This pins down the
// interpreter's two's-complement arithmetic, shifts, and conversions.
func TestRandomIntExpressionsMatchGo(t *testing.T) {
	specs := []*arch.Spec{arch.ARM32(), arch.X8664(), arch.POWER32BE()}
	check := func(ops []uint8, a, b int64) bool {
		want := evalGo(ops, a, b)
		mod := buildExprModule(ops)
		for _, spec := range specs {
			work := mod.Clone("run")
			ir.Lower(work, spec, spec)
			m := bind(t, work, CompileConfig{Name: "prop", Spec: spec})
			got, err := m.CallFunc(work.Func("expr"), uint64(a), uint64(b))
			if err != nil {
				return false
			}
			if int64(got) != want {
				t.Logf("ops=%v a=%d b=%d: %s got %d, want %d", ops, a, b, spec.Name, int64(got), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// evalGo evaluates the op program with Go semantics: a stack machine over
// two seeds, one op per byte.
func evalGo(ops []uint8, a, b int64) int64 {
	x, y := a, b
	for _, op := range ops {
		x, y = step(op, x, y)
	}
	return x
}

func step(op uint8, x, y int64) (int64, int64) {
	switch op % 8 {
	case 0:
		return x + y, x
	case 1:
		return x - y, x
	case 2:
		return x * y, x
	case 3:
		return x & y, y + 1
	case 4:
		return x | y, y - 3
	case 5:
		return x ^ y, x
	case 6:
		return x << (uint(y) & 63), y
	default:
		return x >> (uint(y) & 63), x ^ 7
	}
}

// buildExprModule compiles the same op program to IR:
// func expr(a, b i64) i64 with straight-line code.
func buildExprModule(ops []uint8) *ir.Module {
	mod := ir.NewModule("prop")
	b := ir.NewBuilder(mod)
	f := b.NewFunc("expr", ir.I64, ir.P("a", ir.I64), ir.P("b", ir.I64))
	x := ir.Value(f.Params[0])
	y := ir.Value(f.Params[1])
	for _, op := range ops {
		var nx, ny ir.Value
		switch op % 8 {
		case 0:
			nx, ny = b.Add(x, y), x
		case 1:
			nx, ny = b.Sub(x, y), x
		case 2:
			nx, ny = b.Mul(x, y), x
		case 3:
			nx, ny = b.And(x, y), b.Add(y, ir.Int64(1))
		case 4:
			nx, ny = b.Or(x, y), b.Sub(y, ir.Int64(3))
		case 5:
			nx, ny = b.Xor(x, y), x
		case 6:
			nx, ny = b.Shl(x, b.And(y, ir.Int64(63))), y
		default:
			nx, ny = b.Shr(x, b.And(y, ir.Int64(63))), b.Xor(x, ir.Int64(7))
		}
		x, y = nx, ny
	}
	b.Ret(x)
	b.Finish()
	return mod
}

// TestRandomFloatExpressionsMatchGo does the same for float arithmetic:
// IEEE-754 semantics must match Go's exactly.
func TestRandomFloatExpressionsMatchGo(t *testing.T) {
	check := func(ops []uint8, a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		// Reference evaluation.
		x, y := a, b
		for _, op := range ops {
			switch op % 3 {
			case 0:
				x, y = x+y, x
			case 1:
				x, y = x*y, x-1
			default:
				x, y = x-y, x*0.5
			}
		}
		want := x

		mod := ir.NewModule("fprop")
		bb := ir.NewBuilder(mod)
		f := bb.NewFunc("expr", ir.F64, ir.P("a", ir.F64), ir.P("b", ir.F64))
		xv, yv := ir.Value(f.Params[0]), ir.Value(f.Params[1])
		for _, op := range ops {
			var nx, ny ir.Value
			switch op % 3 {
			case 0:
				nx, ny = bb.Add(xv, yv), xv
			case 1:
				nx, ny = bb.Mul(xv, yv), bb.Sub(xv, ir.Float(1))
			default:
				nx, ny = bb.Sub(xv, yv), bb.Mul(xv, ir.Float(0.5))
			}
			xv, yv = nx, ny
		}
		bb.Ret(xv)
		bb.Finish()

		spec := arch.ARM32()
		ir.Lower(mod, spec, spec)
		m := bind(t, mod, CompileConfig{Name: "fprop", Spec: spec})
		got, err := m.CallFunc(mod.Func("expr"), math.Float64bits(a), math.Float64bits(b))
		if err != nil {
			return false
		}
		gf := math.Float64frombits(got)
		return gf == want || (math.IsNaN(gf) && math.IsNaN(want))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestMemoryRoundTripAllWidths stores and reloads every scalar width on
// every architecture pair (native and unified lowering) and checks
// sign/zero extension semantics.
func TestMemoryRoundTripAllWidths(t *testing.T) {
	type cse struct {
		t    ir.Type
		in   int64
		want int64
	}
	cases := []cse{
		{ir.I8, 0x17F, 0x7F}, // truncates to 8 bits
		{ir.I8, -1, -1},      // sign preserved
		{ir.I16, -32768, -32768},
		{ir.I32, 1 << 31, -(1 << 31)}, // wraps to negative
		{ir.I64, -987654321012345, -987654321012345},
	}
	pairs := [][2]*arch.Spec{
		{arch.ARM32(), arch.ARM32()},
		{arch.X8664(), arch.ARM32()},
		{arch.POWER32BE(), arch.ARM32()},
		{arch.X8664(), arch.X8664()},
	}
	for _, c := range cases {
		for _, pr := range pairs {
			mod := ir.NewModule("rt")
			b := ir.NewBuilder(mod)
			b.NewFunc("main", ir.I32)
			slot := b.Alloca(c.t)
			b.Store(slot, &ir.ConstInt{Typ: c.t.(*ir.IntType), V: c.in})
			out := b.GlobalVar("out", ir.I64)
			b.Store(out, b.Convert(ir.ConvSExt, b.Load(slot), ir.I64))
			b.Ret(ir.Int(0))
			b.Finish()
			ir.Lower(mod, pr[0], pr[1])
			m := bind(t, mod, CompileConfig{Name: "rt", Spec: pr[0], Std: pr[1]})
			if _, err := m.RunMain(); err != nil {
				t.Fatalf("%s/%s %s: %v", pr[0].Name, pr[1].Name, c.t, err)
			}
			bits, _ := m.Mem.ReadUint(m.GlobalAddr(mod.Global("out")), 8)
			if int64(bits) != c.want {
				t.Errorf("%s on %s (std %s): store %d, reload %d, want %d",
					c.t, pr[0].Name, pr[1].Name, c.in, int64(bits), c.want)
			}
		}
	}
}
