package interp

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
)

// TestParsedModuleExecutesIdentically proves the IR text format is a
// faithful serialization: print -> parse -> lower -> run yields the same
// result and (up to lowering) the same cost.
func TestParsedModuleExecutesIdentically(t *testing.T) {
	mod := ir.NewModule("sum")
	buildSum(mod)

	run := func(m *ir.Module) (int32, int64) {
		work := m.Clone("run")
		ir.Lower(work, arch.ARM32(), arch.ARM32())
		mach := bind(t, work, CompileConfig{Name: "m", Spec: arch.ARM32()})
		code, err := mach.RunMain()
		if err != nil {
			t.Fatal(err)
		}
		return code, int64(mach.Clock)
	}

	wantCode, wantClock := run(mod)

	parsed, err := ir.Parse(mod.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	gotCode, gotClock := run(parsed)
	if gotCode != wantCode {
		t.Errorf("parsed module computed %d, want %d", gotCode, wantCode)
	}
	if gotClock != wantClock {
		t.Errorf("parsed module cost %d, want %d (cost model drift)", gotClock, wantClock)
	}
}

// TestParsedProgramWithIO roundtrips a program that exercises printf,
// u_malloc, struct access and an indirect call.
func TestParsedProgramWithIO(t *testing.T) {
	mod := ir.NewModule("io")
	b := ir.NewBuilder(mod)
	sig := ir.Signature(ir.I64, ir.I64)
	dbl := b.NewFunc("dbl", ir.I64, ir.P("x", ir.I64))
	b.Ret(b.Mul(b.F.Params[0], ir.Int64(2)))
	tbl := b.GlobalVar("tbl", ir.Array(ir.Ptr(sig), 1), dbl)
	b.NewFunc("main", ir.I32)
	p := b.CallExtern(ir.ExternUMalloc, ir.Int(16))
	ip := b.Convert(ir.ConvBitcast, p, ir.Ptr(ir.I64))
	b.Store(ip, ir.Int64(21))
	fp := b.Load(b.Index(tbl, ir.Int(0)))
	v := b.CallPtr(fp, sig, b.Load(ip))
	b.CallExtern(ir.ExternPrintf, b.Str("result %d\n"), v)
	b.Ret(b.Convert(ir.ConvTrunc, v, ir.I32))
	b.Finish()

	parsed, err := ir.Parse(mod.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ir.Lower(parsed, arch.ARM32(), arch.ARM32())
	io := NewStdIO(nil)
	mach := bind(t, parsed, CompileConfig{Name: "p", Spec: arch.ARM32()}, WithIO(io))
	code, err := mach.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if code != 42 || io.Out.String() != "result 42\n" {
		t.Errorf("parsed program: code %d, output %q", code, io.Out.String())
	}
}
