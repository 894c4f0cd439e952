package interp

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
)

func buildSum(mod *ir.Module) {
	b := ir.NewBuilder(mod)
	f := b.NewFunc("sum", ir.I32, ir.P("n", ir.I32))
	s := b.Alloca(ir.I32)
	b.Store(s, ir.Int(0))
	b.For("for_i", ir.Int(0), f.Params[0], ir.Int(1), func(i ir.Value) {
		b.Store(s, b.Add(b.Load(s), i))
	})
	b.Ret(b.Load(s))

	b.NewFunc("main", ir.I32)
	b.Ret(b.Call(f, ir.Int(100)))
	b.Finish()
}

// bind compiles the lowered module (uncached) and binds one instance: the
// tests' way to get a machine is the shipped one.
func bind(tb testing.TB, mod *ir.Module, cfg CompileConfig, opts ...InstanceOption) *Machine {
	tb.Helper()
	prog, err := Compile(mod, cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return prog.NewInstance(opts...)
}

func newMachine(t *testing.T, mod *ir.Module, spec, std *arch.Spec) *Machine {
	t.Helper()
	ir.Lower(mod, spec, std)
	return bind(t, mod, CompileConfig{Name: "test", Spec: spec, Std: std})
}

func TestRunSum(t *testing.T) {
	mod := ir.NewModule("sum")
	buildSum(mod)
	m := newMachine(t, mod, arch.ARM32(), arch.ARM32())
	code, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if code != 4950 {
		t.Errorf("sum(100) = %d, want 4950", code)
	}
	if m.Clock <= 0 || m.Steps <= 0 {
		t.Error("clock/steps not advancing")
	}
}

func TestPerformanceRatioObserved(t *testing.T) {
	// The same binary must run ~5.4-5.9x slower on the mobile machine
	// (Table 1's performance gap).
	modA := ir.NewModule("a")
	buildSum(modA)
	ma := newMachine(t, modA, arch.ARM32(), arch.ARM32())
	ma.RunMain()

	modB := ir.NewModule("b")
	buildSum(modB)
	mb := newMachine(t, modB, arch.X8664(), arch.X8664())
	mb.RunMain()

	r := float64(ma.Clock) / float64(mb.Clock)
	if r < 5.3 || r > 5.9 {
		t.Errorf("observed mobile/server time ratio %.2f, want within Table 1 band", r)
	}
}

func TestCostScaleAmplifies(t *testing.T) {
	mod := ir.NewModule("s")
	buildSum(mod)
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m1 := bind(t, mod, CompileConfig{Name: "x1", Spec: arch.ARM32()})
	m1.RunMain()
	m2 := bind(t, mod, CompileConfig{Name: "x10", Spec: arch.ARM32()}, WithCostScale(10))
	m2.RunMain()
	if m2.Clock != 10*m1.Clock {
		t.Errorf("CostScale=10 clock %v, want exactly 10x %v", m2.Clock, m1.Clock)
	}
}

// buildMoveWriter builds a program writing Move{from:1,to:2,score:3.5} into
// a u_malloc'd struct and returning its address truncated to i32.
func buildMoveProgram(mod *ir.Module) *ir.StructType {
	move := ir.Struct("Move",
		ir.StructField{Name: "from", Type: ir.I8},
		ir.StructField{Name: "to", Type: ir.I8},
		ir.StructField{Name: "score", Type: ir.F64},
	)
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	raw := b.CallExtern(ir.ExternUMalloc, ir.Int(16))
	p := b.Convert(ir.ConvBitcast, raw, ir.Ptr(move))
	b.Store(b.Field(p, 0), ir.Int8(1))
	b.Store(b.Field(p, 1), ir.Int8(2))
	b.Store(b.Field(p, 2), ir.Float(3.5))
	b.Ret(b.Convert(ir.ConvBitcast, b.Convert(ir.ConvTrunc, b.Convert(ir.ConvBitcast, p, ir.I64), ir.I32), ir.I32))
	b.Finish()
	return move
}

func TestFigure4CrossLayoutBugAndFix(t *testing.T) {
	// Mobile (ARM32) writes a Move struct into UVA memory with its own
	// layout. A server that laid the struct out per IA32 rules reads
	// score from offset 4 — garbage. With realignment (standard=ARM32 on
	// both), it reads 3.5.
	mobMod := ir.NewModule("mobile")
	move := buildMoveProgram(mobMod)
	ir.Lower(mobMod, arch.ARM32(), arch.ARM32())
	mobile := bind(t, mobMod, CompileConfig{Name: "mobile", Spec: arch.ARM32()})
	addr, err := mobile.RunMain()
	if err != nil {
		t.Fatal(err)
	}

	readScore := func(std *arch.Spec) float64 {
		srvMod := ir.NewModule("server")
		b := ir.NewBuilder(srvMod)
		b.NewFunc("main", ir.I32, ir.P("mv", ir.Ptr(move)))
		sc := b.Load(b.Field(b.F.Params[0], 2))
		out := srvMod.AddGlobal(&ir.Global{Nam: "out", Elem: ir.F64})
		b.Store(out, sc)
		b.Ret(ir.Int(0))
		b.Finish()
		ir.Lower(srvMod, arch.IA32(), std)

		srv := bind(t, srvMod, CompileConfig{Name: "server", Spec: arch.IA32(), Std: std, FuncBase: mem.FuncBaseServer})
		srv.Mem.Fault = func(pn uint32) ([]byte, error) { return mobile.Mem.PageData(pn), nil }
		if _, err := srv.CallFunc(srvMod.Func("main"), uint64(uint32(addr))); err != nil {
			t.Fatal(err)
		}
		bits, _ := srv.Mem.ReadUint(srv.GlobalAddr(srvMod.Global("out")), 8)
		return math.Float64frombits(bits)
	}

	if got := readScore(arch.IA32()); got == 3.5 {
		t.Error("un-realigned server read the correct score; the layout bug should manifest")
	}
	if got := readScore(arch.ARM32()); got != 3.5 {
		t.Errorf("realigned server read %v, want 3.5", got)
	}
}

func TestEndiannessTranslation(t *testing.T) {
	// A big-endian server reading mobile-written (little-endian) data
	// must see the right value when lowered against the mobile standard.
	mobMod := ir.NewModule("m")
	b := ir.NewBuilder(mobMod)
	b.NewFunc("main", ir.I32)
	p := b.CallExtern(ir.ExternUMalloc, ir.Int(8))
	ip := b.Convert(ir.ConvBitcast, p, ir.Ptr(ir.I32))
	b.Store(ip, ir.Int(0x11223344))
	b.Ret(b.Convert(ir.ConvTrunc, b.Convert(ir.ConvBitcast, ip, ir.I64), ir.I32))
	b.Finish()
	ir.Lower(mobMod, arch.ARM32(), arch.ARM32())
	mobile := bind(t, mobMod, CompileConfig{Name: "m", Spec: arch.ARM32()})
	addr, err := mobile.RunMain()
	if err != nil {
		t.Fatal(err)
	}

	read := func(std *arch.Spec) int32 {
		srvMod := ir.NewModule("s")
		sb := ir.NewBuilder(srvMod)
		sb.NewFunc("main", ir.I32, ir.P("p", ir.Ptr(ir.I32)))
		sb.Ret(sb.Load(sb.F.Params[0]))
		sb.Finish()
		ir.Lower(srvMod, arch.POWER32BE(), std)
		srv := bind(t, srvMod, CompileConfig{Name: "s", Spec: arch.POWER32BE(), Std: std})
		srv.Mem.Fault = func(pn uint32) ([]byte, error) { return mobile.Mem.PageData(pn), nil }
		v, err := srv.CallFunc(srvMod.Func("main"), uint64(uint32(addr)))
		if err != nil {
			t.Fatal(err)
		}
		return int32(v)
	}

	if got := read(arch.POWER32BE()); got == 0x11223344 {
		t.Error("big-endian server without translation read the right value; expected byte-swapped garbage")
	}
	if got := read(arch.ARM32()); got != 0x11223344 {
		t.Errorf("with endianness translation, read 0x%x, want 0x11223344", got)
	}
}

func TestMachineLocalGlobalAddressesDiverge(t *testing.T) {
	mod := ir.NewModule("g")
	b := ir.NewBuilder(mod)
	b.GlobalVar("alpha", ir.I32, ir.Int(5))
	b.GlobalVar("beta", ir.I64)
	b.NewFunc("main", ir.I32)
	b.Ret(ir.Int(0))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())

	m1 := bind(t, mod, CompileConfig{Name: "mob", Spec: arch.ARM32()})
	mod2 := mod.Clone("srv")
	ir.Lower(mod2, arch.X8664(), arch.ARM32())
	m2 := bind(t, mod2, CompileConfig{Name: "srv", Spec: arch.X8664(), Std: arch.ARM32(), ShuffleGlobals: true, FuncBase: mem.FuncBaseServer})

	a1 := m1.GlobalAddr(mod.Global("alpha"))
	a2 := m2.GlobalAddr(mod2.Global("alpha"))
	if a1 == a2 {
		t.Error("machine-local globals should land at different addresses on different machines")
	}
}

func TestFunctionAddressesDivergeAndResolve(t *testing.T) {
	mod := ir.NewModule("f")
	b := ir.NewBuilder(mod)
	b.NewFunc("helper", ir.I32, ir.P("x", ir.I32))
	b.Ret(b.Add(b.F.Params[0], ir.Int(1)))
	b.NewFunc("main", ir.I32)
	fp := b.FuncAddr(mod.Func("helper"))
	b.Ret(b.CallPtr(fp, mod.Func("helper").Sig, ir.Int(41)))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())

	m1 := bind(t, mod, CompileConfig{Name: "mob", Spec: arch.ARM32()})
	code, err := m1.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if code != 42 {
		t.Errorf("indirect call = %d, want 42", code)
	}

	mod2 := mod.Clone("srv")
	ir.Lower(mod2, arch.X8664(), arch.ARM32())
	m2 := bind(t, mod2, CompileConfig{Name: "srv", Spec: arch.X8664(), Std: arch.ARM32(), FuncBase: mem.FuncBaseServer, ShuffleFuncs: true})
	if m1.FuncAddr(mod.Func("helper")) == m2.FuncAddr(mod2.Func("helper")) {
		t.Error("function addresses should differ across machines")
	}
	// A mobile address is meaningless on the server without mapping.
	if _, err := m2.ResolveFptr(m1.FuncAddr(mod.Func("helper")), false); err == nil {
		t.Error("server resolved a mobile function address without the s2m map")
	}
	// A resolver that maps it to the *other* binary's function (instead of
	// this module's function of the same name, as the runtime's does) is
	// refused on both engines: that code was compiled for other addresses.
	for _, eng := range []Engine{EngineFast, EngineRef} {
		m := bind(t, mod2, CompileConfig{Name: "srv", Spec: arch.X8664(), Std: arch.ARM32()}, WithEngine(eng))
		m.ResolveFptr = func(uint32, bool) (*ir.Func, error) { return mod.Func("helper"), nil }
		if _, err := m.RunMain(); err == nil || !strings.Contains(err.Error(), "not part of this machine's program") {
			t.Errorf("%v engine: indirect call into a foreign function: %v", eng, err)
		}
	}
}

func TestPrintfFormatting(t *testing.T) {
	mod := ir.NewModule("p")
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	b.CallExtern(ir.ExternPrintf, b.Str("n=%d f=%.2f s=%s c=%c x=%x%%\n"),
		ir.Int(-7), ir.Float(2.5), b.Str("ok"), ir.Int('Z'), ir.Int(255))
	b.Ret(ir.Int(0))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	io := NewStdIO(nil)
	m := bind(t, mod, CompileConfig{Name: "p", Spec: arch.ARM32()}, WithIO(io))
	if _, err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
	want := "n=-7 f=2.50 s=ok c=Z x=ff%\n"
	if io.Out.String() != want {
		t.Errorf("printf output %q, want %q", io.Out.String(), want)
	}
}

func TestScanfReadsInput(t *testing.T) {
	mod := ir.NewModule("s")
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	x := b.Alloca(ir.I32)
	y := b.Alloca(ir.I32)
	b.CallExtern(ir.ExternScanf, b.Str("%d,%d"), x, y)
	b.Ret(b.Add(b.Load(x), b.Load(y)))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	io := NewStdIO([]int64{30, 12})
	m := bind(t, mod, CompileConfig{Name: "s", Spec: arch.ARM32()}, WithIO(io))
	code, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if code != 42 {
		t.Errorf("scanf sum = %d, want 42", code)
	}
}

func TestFileIO(t *testing.T) {
	mod := ir.NewModule("f")
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	fd := b.CallExtern(ir.ExternFileOpen, b.Str("data.bin"))
	buf := b.CallExtern(ir.ExternUMalloc, ir.Int(16))
	n := b.CallExtern(ir.ExternFileRead, fd, buf, ir.Int(16))
	b.CallExtern(ir.ExternFileClose, fd)
	first := b.Load(b.Convert(ir.ConvBitcast, buf, ir.Ptr(ir.I8)))
	b.Ret(b.Add(n, b.Convert(ir.ConvZExt, first, ir.I32)))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	io := NewStdIO(nil)
	io.SyntheticFile("data.bin", 4, 9)
	m := bind(t, mod, CompileConfig{Name: "f", Spec: arch.ARM32()}, WithIO(io))
	code, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	b0 := int32(serialLCG(9, 1)[0])
	if code != 4+b0 {
		t.Errorf("read result = %d, want %d (4 bytes read, the first %d)", code, 4+b0, b0)
	}
}

func TestExitError(t *testing.T) {
	mod := ir.NewModule("e")
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	b.CallExtern(ir.ExternExit, ir.Int(3))
	b.Ret(ir.Int(0))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "e", Spec: arch.ARM32()})
	code, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if code != 3 {
		t.Errorf("exit code = %d, want 3", code)
	}
}

func TestMemcpyMemset(t *testing.T) {
	mod := ir.NewModule("m")
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	src := b.CallExtern(ir.ExternUMalloc, ir.Int(64))
	dst := b.CallExtern(ir.ExternUMalloc, ir.Int(64))
	b.CallExtern(ir.ExternMemset, src, ir.Int(7), ir.Int(64))
	b.CallExtern(ir.ExternMemcpy, dst, src, ir.Int(64))
	last := b.Index(b.Convert(ir.ConvBitcast, dst, ir.Ptr(ir.I8)), ir.Int(63))
	b.Ret(b.Convert(ir.ConvZExt, b.Load(last), ir.I32))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "m", Spec: arch.ARM32()})
	code, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if code != 7 {
		t.Errorf("memcpy/memset = %d, want 7", code)
	}
}

func TestGlobalFuncPtrTableInit(t *testing.T) {
	// The chess example's evals table: a global array of function
	// pointers must be initialized with this machine's addresses and be
	// callable indirectly.
	mod := ir.NewModule("t")
	b := ir.NewBuilder(mod)
	sig := ir.Signature(ir.I32, ir.I32)
	f1 := b.NewFunc("one", ir.I32, ir.P("x", ir.I32))
	b.Ret(b.Add(b.F.Params[0], ir.Int(1)))
	f2 := b.NewFunc("two", ir.I32, ir.P("x", ir.I32))
	b.Ret(b.Add(b.F.Params[0], ir.Int(2)))
	tbl := b.GlobalVar("tbl", ir.Array(ir.Ptr(sig), 2), f1, f2)
	b.NewFunc("main", ir.I32)
	fp := b.Load(b.Index(tbl, ir.Int(1)))
	b.Ret(b.CallPtr(fp, sig, ir.Int(40)))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "t", Spec: arch.ARM32()})
	code, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if code != 42 {
		t.Errorf("fptr table call = %d, want 42", code)
	}
}

func TestStackOverflowDetected(t *testing.T) {
	mod := ir.NewModule("o")
	b := ir.NewBuilder(mod)
	f := b.NewFunc("rec", ir.I32, ir.P("n", ir.I32))
	big := b.Alloca(ir.Array(ir.I64, 4096))
	_ = big
	b.Ret(b.Call(f, b.Add(b.F.Params[0], ir.Int(1))))
	b.NewFunc("main", ir.I32)
	b.Ret(b.Call(f, ir.Int(0)))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "o", Spec: arch.ARM32()})
	if _, err := m.RunMain(); err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("expected stack overflow, got %v", err)
	}
}

func TestComponentAccounting(t *testing.T) {
	mod := ir.NewModule("c")
	b := ir.NewBuilder(mod)
	sig := ir.Signature(ir.I32)
	f := b.NewFunc("leaf", ir.I32)
	b.Ret(ir.Int(1))
	b.NewFunc("main", ir.I32)
	fp := b.FuncAddr(f)
	call := &ir.CallInd{Fn: fp, Sig: sig, Mapped: true}
	b.B.Append(call)
	b.Ret(ir.Int(0))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "c", Spec: arch.ARM32()})
	if _, err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
	if m.Comp[CompFptr] <= 0 {
		t.Error("mapped indirect call should charge the fptr component")
	}
	if m.Comp[CompCompute] <= 0 {
		t.Error("compute component empty")
	}
	if m.Clock != m.Comp[CompCompute]+m.Comp[CompFptr]+m.Comp[CompRemoteIO]+m.Comp[CompComm] {
		t.Error("components do not sum to the clock")
	}
}

func TestDivisionByZero(t *testing.T) {
	mod := ir.NewModule("d")
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	b.Ret(b.Div(ir.Int(1), ir.Int(0)))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "d", Spec: arch.ARM32()})
	if _, err := m.RunMain(); err == nil {
		t.Error("expected division-by-zero error")
	}
}

func TestConversions(t *testing.T) {
	mod := ir.NewModule("cv")
	b := ir.NewBuilder(mod)
	b.NewFunc("main", ir.I32)
	// float -> int -> float round trip plus trunc/sext behaviour.
	f := b.Convert(ir.ConvFPToInt, ir.Float(-3.7), ir.I32)             // -3
	tr := b.Convert(ir.ConvTrunc, ir.Int(0x1FF), ir.I8)                // -1 (0xFF sign-extended)
	sum := b.Add(f, b.Convert(ir.ConvSExt, tr, ir.I32))                // -4
	fl := b.Convert(ir.ConvIntToFP, sum, ir.F64)                       // -4.0
	b.Ret(b.Convert(ir.ConvFPToInt, b.Mul(fl, ir.Float(-10)), ir.I32)) // 40
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "cv", Spec: arch.ARM32()})
	code, err := m.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if code != 40 {
		t.Errorf("conversion chain = %d, want 40", code)
	}
}

// serialLCG is a synthetic file's one-line definition: byte i is the top
// byte of the LCG's state after i+1 steps from seed|1.
func serialLCG(seed uint32, size int) []byte {
	out := make([]byte, size)
	s := seed | 1
	for i := range out {
		s = s*1664525 + 1013904223
		out[i] = byte(s >> 24)
	}
	return out
}

// readAll reads fd to EOF in reads of the given size.
func readAll(t *testing.T, io *StdIO, fd int32, chunk int) []byte {
	t.Helper()
	var got []byte
	buf := make([]byte, chunk)
	for {
		n, err := io.Read(fd, buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return got
		}
		got = append(got, buf[:n]...)
	}
}

// TestSyntheticFileIsTheSerialLCG holds the four-lane generator, as Read
// produces it, to its one-line definition: at every remainder of four and
// across a long file, in chunks from one byte to past the end, for two
// cursors on one file read in step, and across a SnapshotIO/RestoreIO taken
// in the middle of the file.
func TestSyntheticFileIsTheSerialLCG(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1<<20 + 3}
	chunks := []int{1, 2, 3, 4, 5, 7, 64, 4099, 1 << 21}
	for _, seed := range []uint32{0, 7, 0x2468ace0, ^uint32(0)} {
		for _, size := range sizes {
			want := serialLCG(seed, size)
			for _, chunk := range chunks {
				if size > 1<<16 && chunk < 64 {
					continue // a megabyte a byte at a time proves nothing the small files do not
				}
				io := NewStdIO(nil)
				io.SyntheticFile("f", size, seed)
				fd, err := io.Open("f")
				if err != nil {
					t.Fatal(err)
				}
				if got := readAll(t, io, fd, chunk); !bytes.Equal(got, want) {
					t.Fatalf("seed %d size %d chunk %d: read %d bytes that differ from the serial generator", seed, size, chunk, len(got))
				}
			}
		}
	}

	const size = 10_007
	want := serialLCG(0x164, size)
	io := NewStdIO(nil)
	io.SyntheticFile("f", size, 0x164)
	a, _ := io.Open("f")
	b, _ := io.Open("f")
	var gotA, gotB []byte
	buf := make([]byte, 1000)
	for i := 0; len(gotA) < size || len(gotB) < size; i++ {
		n, _ := io.Read(a, buf[:3+i%5])
		gotA = append(gotA, buf[:n]...)
		n, _ = io.Read(b, buf)
		gotB = append(gotB, buf[:n]...)
	}
	if !bytes.Equal(gotA, want) || !bytes.Equal(gotB, want) {
		t.Fatal("two cursors on one file, read in step, do not each see the serial stream")
	}

	io = NewStdIO(nil)
	io.SyntheticFile("f", size, 0x164)
	fd, _ := io.Open("f")
	head := make([]byte, 4001)
	io.Read(fd, head)
	snap := io.SnapshotIO()
	first := readAll(t, io, fd, 333)
	io.RestoreIO(snap)
	again := readAll(t, io, fd, 4096)
	if !bytes.Equal(append(head, first...), want) || !bytes.Equal(first, again) {
		t.Fatal("reading on after RestoreIO does not repeat the stream from the snapshot's position")
	}
}

// TestSyntheticFileReadAllocatesTheReadNotTheFile: a synthetic file is made
// as it is read, straight into the reader's buffer. Reading a 4 MiB file,
// in 4 KiB chunks or whole, allocates only the host's own few dozen bytes
// (a file's cursor, a descriptor's entry) and nothing per byte read.
// TotalAlloc is the process's, so what other goroutines allocate meanwhile
// counts too; that only adds, so each reading takes the least of five.
func TestSyntheticFileReadAllocatesTheReadNotTheFile(t *testing.T) {
	const size, chunk, bound = 4 << 20, 4 << 10, 1 << 10
	allocated := func(chunk int) uint64 {
		dst := make([]byte, chunk)
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			io := NewStdIO(nil)
			io.SyntheticFile("f", size, 0x401)
			fd, err := io.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < size; {
				k, err := io.Read(fd, dst)
				if err != nil || k == 0 {
					t.Fatalf("read at %d: %d bytes, %v", n, k, err)
				}
				n += k
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	if got := allocated(chunk); got > bound {
		t.Errorf("reading a %d-byte file in %d-byte chunks allocated %d bytes, want <= %d", size, chunk, got, bound)
	}
	if got := allocated(size); got > bound {
		t.Errorf("reading a %d-byte file whole allocated %d bytes, want <= %d", size, got, bound)
	}
}
