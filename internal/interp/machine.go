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

	// Listener, when set, observes function entries and exits on both
	// engines and from any program: guest calls and returns, externs, and a
	// suspension at accept (entered there, exited at Resume). The fast engine
	// reports block transfers only from an instrumented program (see
	// Instrumented); the reference engine reports them from any.
	Listener Listener

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

	// frames is the fast engine's activation stack and regs its register
	// stack: the top frame's register window is regs[frames[top].base:]. The
	// reference engine's activations live on the Go stack; it pushes a
	// record holding only the stack pointer to restore per activation, so
	// one bound (maxCallDepth) counts both.
	// While suspended is set — to the accept extern — the fast engine has
	// returned out of its loop at accept with its frames in place (Resume).
	frames    []cframe
	regs      []uint64
	suspended *ir.Func

	// rtlb/wtlb are the direct-mapped page caches of the memory fast path.
	rtlb [tlbWays]tlbEntry
	wtlb [tlbWays]tlbEntry

	sp      uint32
	spFloor uint32
}

// Instrumented reports whether a Listener attached to this machine sees every
// join point it names, block transfers included: always on the reference
// engine, on the fast engine only when the program was compiled with
// CompileConfig.Instrument. Function entries and exits it sees on any.
func (m *Machine) Instrumented() bool {
	return m.Engine == EngineRef || m.cc.instrument
}

// FuncAddr returns this machine's address for f.
func (m *Machine) FuncAddr(f *ir.Func) uint32 { return m.lay.funcAddr[f] }

// FuncAt resolves an address assigned by this machine's linker. An address
// below the table wraps to a huge offset and fails the bounds test.
func (m *Machine) FuncAt(addr uint32) (*ir.Func, bool) {
	i, ok := m.lay.index(addr)
	if !ok {
		return nil, false
	}
	return m.lay.funcs[i], true
}

func alignUp32(n, a uint32) uint32 { return (n + a - 1) / a * a }

// charge advances the clock by n occurrences of op, amplified by
// CostScale, and attributes the time to comp.
func (m *Machine) charge(op arch.Op, n int64, comp Component) {
	m.AddTime(simtime.PS(m.Spec.Cost.Cycles(op)*m.CostScale*n)*simtime.PS(m.Spec.CyclePS), comp)
}

// AddTime advances the clock by an externally computed duration (network
// waits, remote service time) attributed to comp without scaling. Every
// charge comes through here but the fast engine's deferred compute (settle);
// only the server's idle wait for a request sets the clock directly.
func (m *Machine) AddTime(d simtime.PS, comp Component) {
	m.Clock += d
	m.Comp[comp] += d
}

// SP returns the current stack pointer.
func (m *Machine) SP() uint32 { return m.sp }

// SetSP moves the stack pointer (used by the runtime when materializing the
// offloaded task's stack on the server).
func (m *Machine) SetSP(sp uint32) { m.sp = sp; m.spFloor = sp - mem.StackBytes }
