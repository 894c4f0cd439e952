package interp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
)

// buildAndRun lowers a module whose main build writes and runs it on eng —
// with run, or RunMain when run is nil —, returning the error.
func buildAndRun(t *testing.T, build func(b *ir.Builder), eng Engine, run func(m *Machine) error) error {
	t.Helper()
	mod := ir.NewModule("err")
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	build(b)
	if b.B.Terminator() == nil {
		b.Ret(ir.Int(0))
	}
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "err", Spec: arch.ARM32()}, WithEngine(eng))
	if run != nil {
		return run(m)
	}
	_, err := m.RunMain()
	return err
}

// reentrantHost is a runtime whose gate calls back into the machine — a host
// re-entry, as the offload runtime's local fallback makes — running the
// module's function "waiter".
type reentrantHost struct {
	hostObserver
	err error // what the re-entry returned
}

func (h *reentrantHost) Gate(m *Machine, id int32) bool {
	_, err := m.CallFunc(m.Mod.Func("waiter"))
	h.err = err
	return false
}

// callAt calls through a function pointer holding addr. The module's
// functions sit at mem.FuncBaseMobile, funcStride bytes apart.
func callAt(b *ir.Builder, addr int64) {
	sig := ir.Signature(ir.I32)
	fp := b.Convert(ir.ConvBitcast, ir.Int64(addr), ir.Ptr(sig))
	b.CallPtr(fp, sig)
}

func TestErrorPaths(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *ir.Builder)
		run   func(m *Machine) error // nil: RunMain
		want  string
	}{
		{"printf missing argument", func(b *ir.Builder) {
			b.CallExtern(ir.ExternPrintf, b.Str("%d %d\n"), ir.Int(1))
		}, nil, "missing argument"},
		{"printf bad verb", func(b *ir.Builder) {
			b.CallExtern(ir.ExternPrintf, b.Str("%q\n"), ir.Int(1))
		}, nil, "unsupported"},
		{"scanf exhausted", func(b *ir.Builder) {
			dst := b.Alloca(ir.I32)
			b.CallExtern(ir.ExternScanf, b.Str("%d"), dst)
		}, nil, "stdin exhausted"},
		{"read on unopened fd", func(b *ir.Builder) {
			buf := b.CallExtern(ir.ExternUMalloc, ir.Int(8))
			b.CallExtern(ir.ExternFileRead, ir.Int(9), buf, ir.Int(8))
		}, nil, "closed fd"},
		{"open missing file", func(b *ir.Builder) {
			b.CallExtern(ir.ExternFileOpen, b.Str("nope.bin"))
		}, nil, "no such file"},
		{"u_free outside heap", func(b *ir.Builder) {
			b.CallExtern(ir.ExternUFree, ir.Int(0x100))
		}, nil, "outside heap"},
		{"indirect call to garbage address", func(b *ir.Builder) {
			callAt(b, 0x1234)
		}, nil, "no function at address"},
		{"indirect call to misaligned address", func(b *ir.Builder) {
			callAt(b, int64(mem.FuncBaseMobile)+8)
		}, nil, "no function at address"},
		{"indirect call one past the last function", func(b *ir.Builder) {
			callAt(b, int64(mem.FuncBaseMobile)+funcStride*int64(len(b.M.Funcs)))
		}, nil, "no function at address"},
		{"remainder by zero", func(b *ir.Builder) {
			b.Rem(ir.Int(5), ir.Int(0))
		}, nil, "remainder by zero"},
		// f() { f() }: no frame allocates, so only the call-depth bound
		// stops it before the host stack does.
		{"unbounded recursion without locals", func(b *ir.Builder) {
			mainF, mainB := b.F, b.B
			f := b.NewFunc("f", ir.I32)
			b.Ret(b.Call(f))
			b.F, b.B = mainF, mainB
			b.Call(f)
		}, nil, "interp(err): stack overflow in f"},
		{"resume of a machine that is not suspended", func(b *ir.Builder) {}, func(m *Machine) error {
			_, err := m.Resume(1)
			return err
		}, "interp(err): resume of a machine that is not suspended at accept"},
		// accept under a host call would suspend into the host's Go caller,
		// which waits for a result: the call fails instead.
		{"accept beneath a host call", func(b *ir.Builder) {
			mainF, mainB := b.F, b.B
			b.NewFunc("waiter", ir.I32)
			b.Ret(b.CallExtern(ir.ExternAccept))
			b.F, b.B = mainF, mainB
			b.CallExtern(ir.ExternGate, ir.Int(1))
		}, func(m *Machine) error {
			h := &reentrantHost{hostObserver: hostObserver{StdIO: NewStdIO(nil), m: m}}
			m.Sys = h
			if _, err := m.RunMain(); err != nil {
				return fmt.Errorf("main: %v", err)
			}
			return h.err
		}, "cannot suspend"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, eng := range []Engine{EngineFast, EngineRef} {
				err := buildAndRun(t, c.build, eng, c.run)
				if err == nil {
					t.Fatalf("%v engine: expected an error containing %q", eng, c.want)
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Errorf("%v engine: error %q does not contain %q", eng, err, c.want)
				}
			}
		})
	}
}

func TestRunMainRequiresMain(t *testing.T) {
	mod := ir.NewModule("nomain")
	b := ir.NewBuilder(mod)
	b.NewFunc("helper", ir.I32)
	b.Ret(ir.Int(1))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "n", Spec: arch.ARM32()})
	if _, err := m.RunMain(); err == nil {
		t.Error("RunMain without main should fail")
	}
}

func TestCallFuncArityChecked(t *testing.T) {
	mod := ir.NewModule("arity")
	b := ir.NewBuilder(mod)
	f := b.NewFunc("two", ir.I32, ir.P("a", ir.I32), ir.P("b", ir.I32))
	b.Ret(b.Add(f.Params[0], f.Params[1]))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "a", Spec: arch.ARM32()})
	if _, err := m.CallFunc(f, 1); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestUnloweredModuleRejected(t *testing.T) {
	mod := ir.NewModule("raw")
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	g := b.GlobalVar("g", ir.I32)
	b.Ret(b.Load(g))
	b.Finish()
	// Deliberately skip ir.Lower.
	for _, cache := range []*CompilationCache{nil, NewCompilationCache()} {
		_, err := Compile(mod, CompileConfig{Name: "raw", Spec: arch.ARM32()}, cache)
		if err == nil || !strings.Contains(err.Error(), "requires a lowered module") {
			t.Errorf("Compile of an unlowered module should be rejected, got %v", err)
		}
	}
}

// TestCallFuncRejectsForeignFunction: a function of another module (here a
// clone's) was never compiled against this machine's addresses; both engines
// refuse it with the same error instead of panicking or interpreting it.
func TestCallFuncRejectsForeignFunction(t *testing.T) {
	mod := ir.NewModule("own")
	buildSum(mod)
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	foreign := mod.Clone("foreign").Func("sum")
	for _, eng := range []Engine{EngineFast, EngineRef} {
		m := bind(t, mod, CompileConfig{Name: "own", Spec: arch.ARM32()}, WithEngine(eng))
		_, err := m.CallFunc(foreign, 3)
		if want := "interp(own): function sum is not part of this machine's program"; err == nil || err.Error() != want {
			t.Errorf("%v engine: CallFunc(foreign) = %v, want %q", eng, err, want)
		}
		if m.Steps != 0 {
			t.Errorf("%v engine: executed %d steps of a foreign function", eng, m.Steps)
		}
		if got, err := m.CallFunc(mod.Func("sum"), 3); err != nil || got != 3 {
			t.Errorf("%v engine: own sum(3) = %d, %v", eng, got, err)
		}
	}
}

func TestGateWithoutRuntimeNeverOffloads(t *testing.T) {
	mod := ir.NewModule("g")
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	g := b.CallExtern(ir.ExternGate, ir.Int(1))
	b.Ret(b.Convert(ir.ConvZExt, g, ir.I32))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "g", Spec: arch.ARM32()})
	code, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Error("gate without a runtime must choose local execution")
	}
}

func TestOffloadIntrinsicsRequireRuntime(t *testing.T) {
	for _, kind := range []ir.ExternKind{ir.ExternOffload, ir.ExternArg, ir.ExternSendReturn} {
		mod := ir.NewModule("x")
		b := ir.NewBuilder(mod)
		b.NewFunc("main", ir.I32)
		b.CallExtern(kind, ir.Int64(1))
		b.Ret(ir.Int(0))
		b.Finish()
		ir.Lower(mod, arch.ARM32(), arch.ARM32())
		m := bind(t, mod, CompileConfig{Name: "x", Spec: arch.ARM32()})
		if _, err := m.RunMain(); err == nil {
			t.Errorf("%v without a runtime should fail", kind)
		}
	}
}
