package interp

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/simtime"
)

// observation is what host code can read off a machine when it is called.
type observation struct {
	where string
	clock simtime.PS
	steps int64
	comp  [NumComponents]simtime.PS
}

// hostObserver is every kind of host code a plain machine calls into — the
// memory's fault handler, the I/O host, the runtime attachment — recording
// the machine's counters on each call. It embeds the real StdIO so programs
// behave as usual; the SysHost half declines every gate and serves remote
// output and files locally.
type hostObserver struct {
	*StdIO
	m   *Machine
	log []observation
}

func (h *hostObserver) note(format string, args ...any) {
	h.log = append(h.log, observation{fmt.Sprintf(format, args...), h.m.Clock, h.m.Steps, h.m.Comp})
}

func (h *hostObserver) Write(s string) { h.note("io.write %q", s); h.StdIO.Write(s) }

func (h *hostObserver) Gate(m *Machine, id int32) bool { h.note("sys.gate %d", id); return false }
func (h *hostObserver) Offload(*Machine, int32, []uint64) (uint64, error) {
	return 0, fmt.Errorf("offload after a declined gate")
}
func (h *hostObserver) Arg(*Machine, int32) uint64        { return 0 }
func (h *hostObserver) SendReturn(*Machine, uint64) error { return nil }
func (h *hostObserver) RemoteWrite(m *Machine, s string) error {
	h.note("sys.rwrite %q", s)
	h.StdIO.Write(s)
	return nil
}
func (h *hostObserver) RemoteOpen(m *Machine, name string) (int32, error) {
	h.note("sys.ropen %s", name)
	return h.StdIO.Open(name)
}
func (h *hostObserver) RemoteRead(m *Machine, fd int32, n int) ([]byte, error) {
	h.note("sys.rread %d", n)
	left, err := h.StdIO.Left(fd)
	if err != nil {
		return nil, err
	}
	data := make([]byte, max(0, min(n, left)))
	_, err = h.StdIO.Read(fd, data)
	return data, err
}
func (h *hostObserver) RemoteClose(m *Machine, fd int32) error {
	h.note("sys.rclose")
	return h.StdIO.Close(fd)
}

// observed runs main on m with a hostObserver in every host seat. Every page
// the loader placed is taken away first and handed back by the fault handler
// on first touch, so loads and stores all over the program — not only the
// first stack access — leave the loop through the miss path mid-segment.
func observed(m *Machine) (engineRun, []observation) {
	h := &hostObserver{StdIO: NewStdIO(nil), m: m}
	h.SyntheticFile("in.dat", 300, 7)
	m.IO, m.Sys = h, h
	saved := make(map[uint32][]byte)
	for _, pn := range m.Mem.PresentPages() {
		saved[pn] = slices.Clone(m.Mem.PageData(pn))
		m.Mem.Drop(pn)
	}
	m.Mem.Fault = func(pn uint32) ([]byte, error) {
		h.note("fault %#x", pn)
		return saved[pn], nil
	}
	r := engineRun{}
	code, err := m.RunMain()
	r.code = code
	if err != nil {
		r.errStr = err.Error()
	}
	r.out, r.steps, r.clock, r.comp = h.Out.String(), m.Steps, m.Clock, m.Comp
	r.digest = m.Mem.Digest(mem.StackRanges()...)
	return r, h.log
}

// sysExternProgram mixes arithmetic and memory traffic over a two-page array
// with the externs that reach the SysHost: the gate, remote output and a
// remote file read, each in the middle of a loop body.
func sysExternProgram() *ir.Module {
	mod := ir.NewModule("sysext")
	b := ir.NewBuilder(mod)
	arr := b.GlobalVar("arr", ir.Array(ir.I64, 1024))
	buf := b.GlobalVar("buf", ir.Array(ir.I8, 64))
	b.NewFunc("main", ir.I32)
	acc := b.Alloca(ir.I64)
	b.Store(acc, ir.Int64(1))
	fd := b.CallExtern(ir.ExternRemoteFileOpen, b.Str("in.dat"))
	b.For("i", ir.Int64(0), ir.Int64(24), ir.Int64(1), func(i ir.Value) {
		k := b.And(b.Mul(i, ir.Int64(97)), ir.Int64(1023))
		v := b.Add(b.Mul(b.Load(b.Index(arr, k)), ir.Int64(3)), b.Load(acc))
		g := b.CallExtern(ir.ExternGate, ir.Int(1))
		v = b.Add(v, b.Convert(ir.ConvZExt, g, ir.I64))
		b.Store(b.Index(arr, b.Xor(k, ir.Int64(512))), v)
		n := b.CallExtern(ir.ExternRemoteFileRead, fd, b.Index(buf, ir.Int64(0)), ir.Int(16))
		v = b.Add(v, b.Convert(ir.ConvSExt, b.Load(b.Index(buf, ir.Int64(3))), ir.I64))
		b.Store(acc, b.Add(v, b.Convert(ir.ConvSExt, n, ir.I64)))
		b.CallExtern(ir.ExternRemotePrintf, b.Str("i=%d v=%d\n"), i, v)
	})
	b.CallExtern(ir.ExternRemoteFileClose, fd)
	b.Ret(b.Convert(ir.ConvTrunc, b.Load(acc), ir.I32))
	b.Finish()
	return mod
}

// fusedStoreProgram's only store is the last instruction before an
// unconditional branch — compiled as one cStoreIntBr — and the first access
// to its page: the fault it takes is served from inside the fused opcode.
func fusedStoreProgram() *ir.Module {
	mod := ir.NewModule("fusedstore")
	b := ir.NewBuilder(mod)
	flag := b.GlobalVar("flag", ir.I64, ir.Int64(5))
	far := b.GlobalVar("far", ir.Array(ir.I64, 2048))
	b.NewFunc("main", ir.I32)
	v := b.Load(flag)
	b.If(b.Cmp(ir.NE, v, ir.Int64(0)), func() {
		b.Store(b.Index(far, ir.Int64(fusedStoreIndex)), b.Mul(v, ir.Int64(3)))
	}, nil)
	b.Ret(b.Convert(ir.ConvTrunc, b.Load(b.Index(far, ir.Int64(fusedStoreIndex))), ir.I32))
	b.Finish()
	return mod
}

// fusedStoreIndex puts the store two pages past far's first element, clear of
// the page flag is read from.
const fusedStoreIndex = 1024

// TestPlainMachineObserversMatchReferenceEngine is the contract deferred
// settling leans on: on an uninstrumented fast machine with no Listener,
// Touch observer — the configuration that defers — every call out
// of the engine into host code (the mem.Fault handler, IOHost.Write, each
// SysHost service) must find the Clock, Steps and Comp the reference engine
// shows at the same call, over the seeded random programs, the trapping
// programs and a program built around the runtime's externs. A segment
// charge still pending at any of those calls shows up as a smaller clock. A
// fused opcode must not overshoot either: the handler of a store that faults
// inside cStoreIntBr sees the clock without the charge of the branch behind
// it (fusedStoreProgram), which the reference engine has not reached yet.
func TestPlainMachineObserversMatchReferenceEngine(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	cells := diffCells(seeds)
	for _, sp := range diffSpecs() {
		cells = append(cells, diffCell{fmt.Sprintf("sys-externs %s/std=%s", sp.spec.Name, sp.std.Name), sysExternProgram(), sp.spec, sp.std})
		cells = append(cells, diffCell{fmt.Sprintf("fused-store %s/std=%s", sp.spec.Name, sp.std.Name), fusedStoreProgram(), sp.spec, sp.std})
	}
	faults, writes, sys, fusedFaults := 0, 0, 0, 0
	for _, c := range cells {
		work := c.mod.Clone(c.mod.Name)
		ir.Lower(work, c.spec, c.std)
		cfg := CompileConfig{Name: "diff", Spec: c.spec, Std: c.std, InitUVAGlobals: true}
		fast := bind(t, work, cfg)
		fastRun, fastLog := observed(fast)
		if far := work.Global("far"); far != nil && c.std.Endian == arch.Little {
			var stores []cop
			for _, in := range fast.cc.cfuncs[work.Func("main")].code {
				switch in.op {
				case cStoreInt, cStoreF32, cStoreSlow, cStoreIntBr:
					stores = append(stores, in.op)
				}
			}
			if !slices.Equal(stores, []cop{cStoreIntBr}) {
				t.Fatalf("%s: main's stores compile to %v, want one cStoreIntBr", c.label, stores)
			}
			want := fmt.Sprintf("fault %#x", mem.PageNum(fast.GlobalAddr(far)+8*fusedStoreIndex))
			for _, o := range fastLog {
				if o.where == want {
					fusedFaults++
				}
			}
		}
		refRun, refLog := observed(bind(t, work, cfg, WithEngine(EngineRef)))
		compareRuns(t, c.label, fastRun, refRun)
		if !slices.Equal(fastLog, refLog) {
			i := 0
			for i < len(fastLog) && i < len(refLog) && fastLog[i] == refLog[i] {
				i++
			}
			t.Fatalf("%s: host observations diverge at call %d of %d/%d:\n fast: %+v\n  ref: %+v", c.label, i,
				len(fastLog), len(refLog), fastLog[min(i, len(fastLog)-1)], refLog[min(i, len(refLog)-1)])
		}
		for _, o := range fastLog {
			switch o.where[:3] {
			case "fau":
				faults++
			case "io.":
				writes++
			case "sys":
				sys++
			}
		}
	}
	if faults == 0 || writes == 0 || sys == 0 || fusedFaults == 0 {
		t.Errorf("vacuous: %d fault (%d inside a fused store), %d io.write and %d sys observations", faults, fusedFaults, writes, sys)
	}
}

// TestCinstrSize pins the pre-decoded instruction at 48 bytes: the hot loop
// strides over these, and call-only or slow-path-only fields belong in the
// function's side tables.
func TestCinstrSize(t *testing.T) {
	if size := unsafe.Sizeof(cinstr{}); size > 48 {
		t.Errorf("cinstr is %d bytes, want <= 48", size)
	}
}

// TestSegmentChargeOnLastInstruction: every compiled stream carries its
// charges on segment-ending instructions only — the opcodes the engine charges
// from; a register-only instruction never does, a fused compare included —
// and they add up to the function's instruction count. A fused opcode is
// always followed by the branch it executes, and no branch targets that one.
func TestSegmentChargeOnLastInstruction(t *testing.T) {
	spec := arch.ARM32()
	work := genProgram(3)
	ir.Lower(work, spec, spec)
	for _, instrument := range []bool{false, true} {
		prog, err := Compile(work, CompileConfig{Name: "p", Spec: spec, InitUVAGlobals: true, Instrument: instrument}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fused := 0
		for f, cf := range prog.cc.cfuncs {
			var steps int64
			targets := make(map[int32]bool)
			for i := range cf.code {
				switch in := &cf.code[i]; in.op {
				case cBr:
					targets[in.a] = true
				case cCondBr:
					targets[in.b], targets[in.c] = true, true
				}
			}
			for i := range cf.code {
				in := &cf.code[i]
				steps += int64(in.steps)
				switch in.op {
				case cAlloca, cLoad, cLoadF32, cLoadSlow, cStoreInt, cStoreF32, cStoreSlow, cStoreIntBr,
					cDiv, cRem, cCall, cCallInd, cBr, cCondBr, cRet, cTrap:
					if in.steps == 0 {
						t.Errorf("%s pc %d: segment-ending op %d carries no charge", f.Nam, i, in.op)
					}
				default:
					if in.steps != 0 || in.cycles != 0 {
						t.Errorf("%s pc %d: op %d carries a charge mid-segment", f.Nam, i, in.op)
					}
				}
				behind := cInvalid
				switch in.op {
				case cCmpSBr, cCmpUBr:
					behind = cCondBr
				case cStoreIntBr:
					behind = cBr
				case cCmpS, cCmpU:
					if next := cf.code[i+1]; next.op == cCondBr && next.a == in.c {
						t.Errorf("%s pc %d: compare and the branch on it were left unfused", f.Nam, i)
					}
				case cStoreInt:
					if cf.code[i+1].op == cBr {
						t.Errorf("%s pc %d: store and the branch behind it were left unfused", f.Nam, i)
					}
				}
				if behind != cInvalid {
					fused++
					if next := cf.code[i+1]; next.op != behind || (behind == cCondBr && next.a != in.c) {
						t.Errorf("%s pc %d: fused op %d is followed by op %d", f.Nam, i, in.op, next.op)
					}
					if targets[int32(i+1)] {
						t.Errorf("%s pc %d: the branch of fused op %d is a branch target", f.Nam, i+1, in.op)
					}
				}
			}
			var want int64
			for _, blk := range f.Blocks {
				want += int64(len(blk.Instrs))
			}
			if steps != want {
				t.Errorf("%s (instrument=%v): charges count %d steps, the function has %d instructions", f.Nam, instrument, steps, want)
			}
		}
		if fused == 0 {
			t.Errorf("instrument=%v: no fused opcode in the program", instrument)
		}
	}
}
