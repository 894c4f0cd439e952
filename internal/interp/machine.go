// Package interp executes lowered IR modules on a simulated machine. It
// stands in for the paper's back-end compilers plus native execution: a
// Machine binds a module to an architecture spec, a paged memory, a
// simulated clock, and cost accounting, and honours exactly the
// architectural properties (data layout, address size, byte order, relative
// speed) that the Native Offloader compiler must bridge.
//
// There is one way to obtain a Machine: Compile a lowered module into a
// Program (the binary: linked, loaded, every function pre-decoded) and bind
// it with Program.NewInstance.
package interp

import (
	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Component buckets simulated time for the paper's Figure 7 breakdown.
type Component int

const (
	CompCompute  Component = iota // computation (equals ideal execution time)
	CompFptr                      // function pointer translation
	CompRemoteIO                  // remote I/O operations
	CompComm                      // memory transfer (filled in by the runtime)
	NumComponents
)

func (c Component) String() string {
	return [...]string{"compute", "fptr", "remoteIO", "comm"}[c]
}

// Listener observes execution for profiling (Section 3.1). All methods are
// invoked synchronously on the interpreter's thread.
type Listener interface {
	EnterFunc(m *Machine, f *ir.Func)
	ExitFunc(m *Machine, f *ir.Func)
	EnterBlock(m *Machine, f *ir.Func, b *ir.Block)
}

// Machine is one simulated computer executing one lowered module.
type Machine struct {
	Name string
	Spec *arch.Spec
	// Std is the data-layout standard the module was lowered against: the
	// machine's own spec for conventional binaries, the mobile spec for
	// unified binaries (Section 3.2).
	Std *arch.Spec
	Mod *ir.Module
	Mem *mem.Memory

	// Heap is the UVA heap allocator (u_malloc); LocalHeap serves plain
	// malloc in non-unified binaries.
	Heap      *mem.Allocator
	LocalHeap *mem.Allocator

	// Clock is the simulated time on this machine.
	Clock simtime.PS
	// CostScale amplifies compute charges; workloads use it to model
	// paper-scale execution times with small iteration counts.
	CostScale int64

	// Comp buckets elapsed time by component for Figure 7.
	Comp [NumComponents]simtime.PS

	// Steps counts executed IR instructions.
	Steps int64
	// cycles is compute the fast engine's hot loop has charged and its
	// stepper not yet applied to Clock (settle); zero whenever neither runs.
	cycles int64

	IO  IOHost
	Sys SysHost

	// Listener, when set, observes calls and block transfers (profiler). The
	// fast engine reports block transfers only from an instrumented program
	// (see Instrumented); the reference engine reports them from any.
	Listener Listener

	// Tracer, when set, receives task enter/exit events on TraceTrack;
	// the offload runtime installs it on both machines. Nil-safe: a
	// machine without a tracer pays nothing.
	Tracer     *obs.Tracer
	TraceTrack obs.Track

	// ResolveFptr maps a stored function-pointer value to a callable
	// function. The default resolves the machine's own addresses; the
	// offload runtime installs a translating resolver on the server
	// (Section 3.4). The mapped flag says the compiler marked this call
	// site for translation. The result must be a function of this machine's
	// module; both engines refuse to call anything else.
	ResolveFptr func(addr uint32, mapped bool) (*ir.Func, error)

	// lay is the linker's address assignment (function and global
	// addresses), shared read-only with the Program and its sibling
	// instances. The two machines of a session deliberately disagree on
	// addresses.
	lay *linkage

	// Engine selects the execution engine: EngineFast (the default)
	// interprets the program's pre-decoded flat instruction streams,
	// EngineRef walks the IR tree. Nothing else decides the dispatch.
	Engine Engine

	// cc is the program's compiled code (fast engine): every function of the
	// module, compiled before the first instance existed and never written
	// again, so concurrent instances read it without locking.
	cc *compiler

	// pools recycles register frames, indexed by cfunc.idx. Frames are
	// per-machine (the compiled code is shared), so the pools live here.
	pools [][][]uint64

	// rtlb/wtlb are the direct-mapped page caches of the memory fast path.
	rtlb [tlbWays]tlbEntry
	wtlb [tlbWays]tlbEntry

	// sampler, when set via SetSampler, is the guest sampling profiler.
	// It needs no instrumented program; every clock-advance site checks it
	// with a nil-guarded boundary compare, and the fast loop settles its
	// segment charges at every segment end while one is attached.
	sampler *Sampler

	sp      uint32
	spFloor uint32
}

// acquireFrame returns a cleared register frame for cf, recycling through
// this machine's per-function pool.
func (m *Machine) acquireFrame(cf *cfunc) []uint64 {
	if s := m.pools[cf.idx]; len(s) > 0 {
		regs := s[len(s)-1]
		m.pools[cf.idx] = s[:len(s)-1]
		clear(regs)
		return regs
	}
	return make([]uint64, cf.fn.NumSlots)
}

// releaseFrame returns a frame to the pool.
func (m *Machine) releaseFrame(cf *cfunc, regs []uint64) {
	m.pools[cf.idx] = append(m.pools[cf.idx], regs)
}

// Instrumented reports whether a Listener attached to this machine sees every
// join point it names: always on the reference engine, on the fast engine
// only when the program was compiled with CompileConfig.Instrument.
func (m *Machine) Instrumented() bool {
	return m.Engine == EngineRef || m.cc.instrument
}

// FuncAddr returns this machine's address for f.
func (m *Machine) FuncAddr(f *ir.Func) uint32 { return m.lay.funcAddr[f] }

// FuncAt resolves an address assigned by this machine's linker.
func (m *Machine) FuncAt(addr uint32) (*ir.Func, bool) {
	f, ok := m.lay.funcByAddr[addr]
	return f, ok
}

func alignUp32(n, a uint32) uint32 { return (n + a - 1) / a * a }

// charge advances the clock by the cost of op, amplified by CostScale, and
// attributes it to comp.
func (m *Machine) charge(op arch.Op, comp Component) {
	d := simtime.PS(m.Spec.Cost.Cycles(op)*m.CostScale) * simtime.PS(m.Spec.CyclePS)
	m.Clock += d
	m.Comp[comp] += d
	if s := m.sampler; s != nil && m.Clock >= s.next {
		s.take(m.Clock)
	}
}

// chargeN charges n occurrences of op.
func (m *Machine) chargeN(op arch.Op, n int64, comp Component) {
	d := simtime.PS(m.Spec.Cost.Cycles(op)*m.CostScale*n) * simtime.PS(m.Spec.CyclePS)
	m.Clock += d
	m.Comp[comp] += d
	if s := m.sampler; s != nil && m.Clock >= s.next {
		s.take(m.Clock)
	}
}

// AddTime advances the clock by an externally computed duration (network
// waits, remote service time) attributed to comp without scaling.
func (m *Machine) AddTime(d simtime.PS, comp Component) {
	m.Clock += d
	m.Comp[comp] += d
	if s := m.sampler; s != nil && m.Clock >= s.next {
		s.take(m.Clock)
	}
}

// SP returns the current stack pointer.
func (m *Machine) SP() uint32 { return m.sp }

// SetSP moves the stack pointer (used by the runtime when materializing the
// offloaded task's stack on the server).
func (m *Machine) SetSP(sp uint32) { m.sp = sp; m.spFloor = sp - mem.StackBytes }
