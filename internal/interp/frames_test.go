package interp

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
)

// stackProbe is an IOHost that records, at every write, how many Go frames
// are on the stack of the goroutine running the machine.
type stackProbe struct {
	*StdIO
	depths []int
}

func (p *stackProbe) Write(s string) {
	pcs := make([]uintptr, 1<<12)
	p.depths = append(p.depths, runtime.Callers(0, pcs))
	p.StdIO.Write(s)
}

// TestFastEngineDoesNotRecurseOnTheGoStack: a guest call pushes a frame on
// the machine's frame stack, not a Go activation, so an extern reached
// through one guest call and through a thousand sees the same Go stack.
func TestFastEngineDoesNotRecurseOnTheGoStack(t *testing.T) {
	mod := ir.NewModule("deep")
	b := ir.NewBuilder(mod)
	down := b.NewFunc("down", ir.I32, ir.P("n", ir.I32))
	n := down.Params[0]
	b.If(b.Cmp(ir.EQ, n, ir.Int(0)), func() {
		b.CallExtern(ir.ExternPrintf, b.Str("bottom\n"))
		b.Ret(ir.Int(0))
	}, nil)
	b.Ret(b.Add(b.Call(down, b.Sub(n, ir.Int(1))), ir.Int(1)))
	b.Finish()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	probe := &stackProbe{StdIO: NewStdIO(nil)}
	m := bind(t, mod, CompileConfig{Name: "deep", Spec: arch.ARM32()}, WithIO(probe))
	for _, depth := range []uint64{1, 1000} {
		got, err := m.CallFunc(down, depth-1)
		if err != nil || got != depth-1 {
			t.Fatalf("down(%d) = %d, %v", depth-1, got, err)
		}
	}
	if len(probe.depths) != 2 || probe.depths[0] != probe.depths[1] {
		t.Errorf("Go stack depth at the extern, guest depth 1 and 1000: %v, want equal", probe.depths)
	}
}

// listenModule is a listen loop of the partitioner's shape: main calls
// listen, which accepts task ids until 0, answering each id k with
// sendreturn(10k + arg 0), and main then exits with the number served.
func listenModule() *ir.Module {
	mod := ir.NewModule("listen")
	b := ir.NewBuilder(mod)
	served := b.GlobalVar("served", ir.I32)
	listen := b.NewFunc("listen", ir.Void)
	loop, body, done := b.Block("loop"), b.Block("body"), b.Block("done")
	b.Br(loop)
	b.SetBlock(loop)
	id := b.CallExtern(ir.ExternAccept)
	b.CondBr(b.Cmp(ir.EQ, id, ir.Int(0)), done, body)
	b.SetBlock(body)
	arg := b.CallExtern(ir.ExternArg, ir.Int(0))
	b.CallExtern(ir.ExternSendReturn, b.Add(b.Mul(b.Convert(ir.ConvSExt, id, ir.I64), ir.Int64(10)), arg))
	b.Store(served, b.Add(b.Load(served), ir.Int(1)))
	b.Br(loop)
	b.SetBlock(done)
	b.RetVoid()
	b.NewFunc("main", ir.I32)
	b.Call(listen)
	b.Ret(b.Load(served))
	b.Finish()
	return mod
}

// taskHost is a runtime for listenModule: Arg answers argument 0 with arg,
// and SendReturn records the result.
type taskHost struct {
	hostObserver
	arg     uint64
	results []uint64
}

func (h *taskHost) Arg(*Machine, int32) uint64 { return h.arg }
func (h *taskHost) SendReturn(_ *Machine, v uint64) error {
	h.results = append(h.results, v)
	return nil
}

// TestAcceptSuspendsAndResumes: on a machine with a runtime, accept returns
// ErrSuspended out of RunMain with the listen loop's frames in place; each
// Resume delivers a task id as accept's result and runs to the next accept,
// and Resume(0) lets main return. The stack pointer, the frame stack and the
// stack profile's current stack are back where they started once main has
// returned.
func TestAcceptSuspendsAndResumes(t *testing.T) {
	mod := listenModule()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "server", Spec: arch.ARM32()})
	h := &taskHost{hostObserver: hostObserver{StdIO: NewStdIO(nil), m: m}}
	m.Sys = h
	s := NewSampler()
	s.Attach(m)
	sp := m.SP()
	if _, err := m.RunMain(); !errors.Is(err, ErrSuspended) {
		t.Fatalf("RunMain = %v, want ErrSuspended", err)
	}
	if got := len(m.frames); got != 2 {
		t.Errorf("suspended with %d frames, want main and listen", got)
	}
	for i, id := range []uint64{3, 5} {
		h.arg = uint64(i + 1)
		if _, err := m.Resume(id); !errors.Is(err, ErrSuspended) {
			t.Fatalf("Resume(%d) = %v, want ErrSuspended at the next accept", id, err)
		}
	}
	code, err := m.Resume(0)
	if err != nil || code != 2 {
		t.Fatalf("Resume(0) = %d, %v, want main's exit code 2", code, err)
	}
	if want := []uint64{31, 52}; len(h.results) != 2 || h.results[0] != want[0] || h.results[1] != want[1] {
		t.Errorf("results %v, want %v", h.results, want)
	}
	if m.SP() != sp || len(m.frames) != 0 || len(m.regs) != 0 || s.cur != 0 {
		t.Errorf("after main: sp %#x (want %#x), %d frames, %d registers, sampler stack node %d",
			m.SP(), sp, len(m.frames), len(m.regs), s.cur)
	}
	if _, err := m.Resume(1); err == nil {
		t.Error("Resume after main returned was accepted")
	}
}
