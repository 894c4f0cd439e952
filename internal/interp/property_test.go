package interp

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/simtime"
)

// TestRandomIntExpressionsMatchGo is a differential property test: random
// integer expression DAGs are evaluated both by the Go compiler (the
// reference semantics) and by the IR interpreter on every modelled
// architecture, on both engines; results must agree bit for bit. This pins
// down the interpreter's two's-complement arithmetic, shifts, conversions
// and remainders by constants — the powers of two the fast engine masks
// (cRemPow2) and the divisors it divides by — including math.MinInt64 and
// the other extreme dividends. Each program also runs with a stack profile
// attached, where the fast engine must show the reference engine's clock
// and steps and its profile the same attribution.
func TestRandomIntExpressionsMatchGo(t *testing.T) {
	specs := []*arch.Spec{arch.ARM32(), arch.X8664(), arch.POWER32BE()}
	check := func(ops []uint8, a, b int64) bool {
		want := evalGo(ops, a, b)
		mod := buildExprModule(ops)
		for _, spec := range specs {
			work := mod.Clone("run")
			ir.Lower(work, spec, spec)
			for _, profiled := range []bool{false, true} {
				var runs [2]exprRun
				for i, eng := range []Engine{EngineFast, EngineRef} {
					runs[i] = runExpr(t, work, spec, eng, profiled, uint64(a), uint64(b))
					if runs[i].err != nil || int64(runs[i].v) != want {
						t.Logf("ops=%v a=%d b=%d: %s/%s profiled=%v got %d (%v), want %d",
							ops, a, b, spec.Name, eng, profiled, int64(runs[i].v), runs[i].err, want)
						return false
					}
				}
				if runs[0] != runs[1] {
					t.Logf("ops=%v a=%d b=%d: %s profiled=%v: fast %+v, ref %+v", ops, a, b, spec.Name, profiled, runs[0], runs[1])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
	dividends := []int64{math.MinInt64, math.MinInt64 + 1, -(1 << 40) - 3, -12345, -1, 0, 5, math.MaxInt64}
	for k, d := range remDivisors {
		ops := []uint8{8 + 9*uint8(k)}
		mod := buildExprModule(ops)
		ir.Lower(mod, specs[0], specs[0])
		code := bind(t, mod, CompileConfig{Name: "prop", Spec: specs[0]}).cc.cfuncs[mod.Func("expr")].code
		abs := d
		if abs < 0 {
			abs = -abs // math.MinInt64 stays negative
		}
		pow2 := abs > 0 && abs&(abs-1) == 0
		if masked := slices.ContainsFunc(code, func(in cinstr) bool { return in.op == cRemPow2 }); masked != pow2 {
			t.Errorf("%% %d compiles to a mask: %v, want %v", d, masked, pow2)
		}
		for _, a := range dividends {
			if !check([]uint8{8 + 9*uint8(k)}, a, 3) {
				t.Errorf("%d %% %d: the engines disagree with Go", a, remDivisors[k])
			}
		}
	}
}

// exprRun is what one run of buildExprModule's expr leaves behind.
type exprRun struct {
	v      uint64
	err    error
	clock  simtime.PS
	steps  int64
	folded string
}

// runExpr calls expr(a, b) on a fresh machine of the given engine, with a
// stack profile attached when profiled.
func runExpr(t *testing.T, work *ir.Module, spec *arch.Spec, eng Engine, profiled bool, a, b uint64) exprRun {
	m := bind(t, work, CompileConfig{Name: "prop", Spec: spec}, WithEngine(eng))
	var s *Sampler
	if profiled {
		s = NewSampler()
		s.Attach(m)
	}
	var r exprRun
	r.v, r.err = m.CallFunc(work.Func("expr"), a, b)
	r.clock, r.steps = m.Clock, m.Steps
	if s != nil {
		s.Flush(m.Clock)
		r.folded = s.Folded()
	}
	return r
}

// remDivisors are the constant divisors op 8 takes the remainder by: ±2^k
// (1 and -1 are 2^0) and math.MinInt64, which the fast engine leaves to the
// divide, and divisors that are no power of two.
var remDivisors = []int64{1, -1, 2, -2, 16, -16, 1024, -8192, 1 << 40, 1 << 62, -(1 << 62), math.MinInt64, 3, 7, -10}

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
	switch op % 9 {
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
	case 7:
		return x >> (uint(y) & 63), x ^ 7
	default:
		return x % remDivisors[int(op/9)%len(remDivisors)], y
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
		switch op % 9 {
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
		case 7:
			nx, ny = b.Shr(x, b.And(y, ir.Int64(63))), b.Xor(x, ir.Int64(7))
		default:
			nx, ny = b.Rem(x, ir.Int64(remDivisors[int(op/9)%len(remDivisors)])), y
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
// sign/zero extension semantics. It then stores and reloads every integer
// width at each page offset from 4080 to 4095 on both engines — the fast
// engine's one 8-byte store shape up to offset 4088, the byte-exact store
// and page-straddling accesses beyond — and checks that no byte around the
// stored ones changed; and runs all of it again with a stack profile
// attached, where the fast engine must show the reference engine's clock and
// the profile the same attribution.
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
	for _, profiled := range []bool{false, true} {
		fast := pageEndStores(t, EngineFast, profiled)
		if ref := pageEndStores(t, EngineRef, profiled); fast != ref {
			t.Errorf("page-end stores (profiled=%v): fast %+v, ref %+v", profiled, fast, ref)
		}
	}
}

// pageEndStores runs put(idx, v) — store v's low w bytes at &buf[idx], then
// reload them sign-extended — for w = 1, 2, 4, 8 at every page offset from
// 4080 to 4095, twice per place: the first store fills the write page cache
// and the second, of another value, hits it. buf holds a byte pattern first,
// and every byte of it but the stored ones must keep it. put reaches the
// store through a call, so a stack profile sees two stacks.
func pageEndStores(t *testing.T, eng Engine, profiled bool) exprRun {
	t.Helper()
	spec := arch.ARM32()
	widths := []*ir.IntType{ir.I8, ir.I16, ir.I32, ir.I64}
	mod := ir.NewModule("pageend")
	b := ir.NewBuilder(mod)
	buf := b.GlobalVar("buf", ir.Array(ir.I8, 3*mem.PageSize))
	var stores []*ir.Func
	for _, ty := range widths {
		f := b.NewFunc(fmt.Sprintf("store%d", ty.Bits), ir.I64, ir.P("idx", ir.I64), ir.P("v", ir.I64))
		p := b.Convert(ir.ConvBitcast, b.Index(buf, f.Params[0]), ir.Ptr(ty))
		v := ir.Value(f.Params[1])
		if ty.Bits < 64 {
			v = b.Convert(ir.ConvTrunc, v, ty)
		}
		b.Store(p, v)
		r := b.Load(p)
		if ty.Bits < 64 {
			r = b.Convert(ir.ConvSExt, r, ir.I64)
		}
		b.Ret(r)
		stores = append(stores, f)
	}
	var puts []*ir.Func
	for i, ty := range widths {
		f := b.NewFunc(fmt.Sprintf("put%d", ty.Bits), ir.I64, ir.P("idx", ir.I64), ir.P("v", ir.I64))
		b.Ret(b.Call(stores[i], f.Params[0], f.Params[1]))
		puts = append(puts, f)
	}
	b.Finish()
	ir.Lower(mod, spec, spec)
	m := bind(t, mod, CompileConfig{Name: "pageend", Spec: spec}, WithEngine(eng))
	var s *Sampler
	if profiled {
		s = NewSampler()
		s.Attach(m)
	}
	base := m.GlobalAddr(mod.Global("buf"))
	want := make([]byte, 3*mem.PageSize)
	for i := range want {
		want[i] = byte(i*7 + 3)
	}
	if err := m.Mem.WriteBytes(base, want); err != nil {
		t.Fatal(err)
	}
	for i, ty := range widths {
		w := int(ty.Bits / 8)
		for off := mem.PageSize - 16; off < mem.PageSize; off++ {
			// idx lands at page offset off on buf's second page.
			idx := mem.PageSize + (off-int(base%mem.PageSize)+mem.PageSize)%mem.PageSize
			for _, v := range []uint64{0x8877665544332211 + uint64(off), 0x0123456789abcdef ^ uint64(off)<<56} {
				got, err := m.CallFunc(puts[i], uint64(idx), v)
				if err != nil {
					t.Fatal(err)
				}
				if want := int64(v<<(64-8*w)) >> (64 - 8*w); int64(got) != want {
					t.Fatalf("%v: i%d at page offset %d reloads %#x, want %#x", eng, ty.Bits, off, got, want)
				}
				var le [8]byte
				binary.LittleEndian.PutUint64(le[:], v)
				copy(want[idx:idx+w], le[:w])
			}
			have, err := m.Mem.ReadBytes(base, len(want))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(have, want) {
				for j := range want {
					if have[j] != want[j] {
						t.Fatalf("%v: after i%d stores at page offset %d, buf[%d] (page offset %d) is %#x, want %#x",
							eng, ty.Bits, off, j, (int(base)+j)%mem.PageSize, have[j], want[j])
					}
				}
			}
		}
	}
	r := exprRun{clock: m.Clock, steps: m.Steps}
	if s != nil {
		s.Flush(m.Clock)
		r.folded = s.Folded()
	}
	return r
}
