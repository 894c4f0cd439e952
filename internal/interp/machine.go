// Package interp executes lowered IR modules on a simulated machine. It
// stands in for the paper's back-end compilers plus native execution: a
// Machine binds a module to an architecture spec, a paged memory, a
// simulated clock, and cost accounting, and honours exactly the
// architectural properties (data layout, address size, byte order, relative
// speed) that the Native Offloader compiler must bridge.
package interp

import (
	"fmt"

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

	IO  IOHost
	Sys SysHost

	// Listener, when set, observes calls and block transfers (profiler).
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
	// site for translation.
	ResolveFptr func(addr uint32, mapped bool) (*ir.Func, error)

	// lay is the linker's address assignment (function and global
	// addresses). Owned by this machine when built via NewMachine; shared
	// read-only with the Program (and its sibling instances) when built via
	// Program.NewInstance. The two machines of a session deliberately
	// disagree on addresses either way.
	lay *linkage

	// Engine selects the execution engine. EngineFast (the default)
	// interprets pre-decoded flat instruction streams; a Listener forces
	// the reference tree-walker regardless (the profiler needs per-block
	// clock observations).
	Engine Engine

	// cc holds the compiled functions (fast engine). A NewMachine-built
	// machine owns an unsealed compiler and compiles lazily; an instance of
	// a shared Program aliases the program's sealed compiler, whose cfunc
	// map is immutable and safe for concurrent instances.
	cc *compiler

	// prog is the shared program this machine instantiates, nil for a
	// private NewMachine-built machine.
	prog *Program

	// pools recycles register frames, indexed by cfunc.idx. Frames are
	// per-machine (the compiled code is shared), so the pools live here.
	pools [][][]uint64

	// rtlb/wtlb are the direct-mapped page caches of the memory fast path.
	rtlb [tlbWays]tlbEntry
	wtlb [tlbWays]tlbEntry

	// sampler, when set via SetSampler, is the guest sampling profiler.
	// Unlike Listener it works on both engines; every clock-advance site
	// checks it with a nil-guarded boundary compare.
	sampler *Sampler

	sp      uint32
	spFloor uint32
}

// Config bundles Machine construction options.
type Config struct {
	Name string
	Spec *arch.Spec
	Std  *arch.Spec // defaults to Spec (conventional lowering)
	Mod  *ir.Module
	Mem  *mem.Memory // defaults to a fresh memory
	// FuncBase is where this machine's linker places function addresses.
	FuncBase uint32
	// ShuffleFuncs makes the linker assign addresses in name-sorted order
	// instead of declaration order, so two machines disagree on every
	// function address even with the same base.
	ShuffleFuncs bool
	// ShuffleGlobals does the same for machine-local global placement.
	ShuffleGlobals bool
	// InitUVAGlobals writes initial values of UVA-homed globals into
	// memory. Only the mobile machine does this; the server receives those
	// pages via copy-on-demand.
	InitUVAGlobals bool
	CostScale      int64
	IO             IOHost
	Sys            SysHost
	// Engine selects the execution engine (default EngineFast).
	Engine Engine
}

// NewMachine builds, links and loads a machine with a private memory and
// private compiled code. The module must already be lowered (ir.Lower)
// against cfg.Std.
//
// NewMachine is not deprecated: it is the private-memory reference that
// TestBindSmoke and the engine-equivalence tests compare shared
// instances against, and the entry point for callers that need a
// caller-supplied cfg.Mem or lazy compilation of not-yet-lowered
// modules. Serving paths that bind many sessions to one program should
// use Compile to build a shared *Program (optionally through a
// CompilationCache) and Program.NewInstance instead — instances share
// the pre-decoded code and the initial memory image copy-on-write, so
// binding is O(1) and per-session resident bytes shrink to the pages
// actually written.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Std == nil {
		cfg.Std = cfg.Spec
	}
	if cfg.Mem == nil {
		cfg.Mem = mem.New()
	}
	if cfg.FuncBase == 0 {
		cfg.FuncBase = mem.FuncBaseMobile
	}
	lay := newLinkage(cfg.Mod, cfg.Std, cfg.FuncBase, cfg.ShuffleFuncs, cfg.ShuffleGlobals)
	cc := newCompiler(cfg.Name, cfg.Spec, cfg.Std, lay, len(cfg.Mod.Funcs))
	m := newMachineShell(cfg.Name, cfg.Spec, cfg.Std, cfg.Mod, cfg.Mem, lay, cc)
	m.CostScale = cfg.CostScale
	if m.CostScale <= 0 {
		m.CostScale = 1
	}
	if cfg.IO != nil {
		m.IO = cfg.IO
	}
	m.Sys = cfg.Sys
	m.Engine = cfg.Engine

	if err := writeGlobalInits(m.Mem, cfg.Mod, cfg.Std, lay, cfg.InitUVAGlobals); err != nil {
		return nil, err
	}
	if m.Engine == EngineFast && m.Mod.Lowered {
		// Bind-time pre-decode: flatten every function body once, so the
		// run pays no per-instruction decode cost. Modules lowered only
		// after machine construction compile lazily on first call instead
		// (pre-decoding bakes in layout-resolved sizes and strides).
		for _, f := range m.Mod.Funcs {
			if !f.IsExtern() {
				cc.ensureCompiled(f)
			}
		}
	}
	m.pools = make([][][]uint64, cc.nfuncs)
	return m, nil
}

// newMachineShell builds the per-session Machine skeleton around an address
// layout and compiled code, shared by NewMachine (private) and
// Program.NewInstance (shared).
func newMachineShell(name string, spec, std *arch.Spec, mod *ir.Module, mm *mem.Memory, lay *linkage, cc *compiler) *Machine {
	m := &Machine{
		Name:      name,
		Spec:      spec,
		Std:       std,
		Mod:       mod,
		Mem:       mm,
		CostScale: 1,
		IO:        NewStdIO(nil),
		lay:       lay,
		cc:        cc,
		sp:        mod.StackBase,
		spFloor:   mod.StackBase - mem.StackBytes,
	}
	m.ResolveFptr = func(addr uint32, mapped bool) (*ir.Func, error) {
		f, ok := m.lay.funcByAddr[addr]
		if !ok {
			return nil, fmt.Errorf("interp(%s): no function at address 0x%x (unmapped cross-machine pointer?)", m.Name, addr)
		}
		return f, nil
	}
	m.Heap = mem.UVAHeap(m.Mem)
	m.LocalHeap = mem.NewAllocator(m.Mem, mem.LocalBase+0x0100_0000, mem.LocalBase+0x0200_0000)
	return m
}

// acquireFrame returns a cleared register frame for cf, recycling through
// this machine's per-function pool.
func (m *Machine) acquireFrame(cf *cfunc) []uint64 {
	if int(cf.idx) < len(m.pools) {
		if s := m.pools[cf.idx]; len(s) > 0 {
			regs := s[len(s)-1]
			m.pools[cf.idx] = s[:len(s)-1]
			clear(regs)
			return regs
		}
	}
	return make([]uint64, cf.fn.NumSlots)
}

// releaseFrame returns a frame to the pool, growing the pool table when a
// lazily compiled function appears after construction.
func (m *Machine) releaseFrame(cf *cfunc, regs []uint64) {
	if int(cf.idx) >= len(m.pools) {
		grown := make([][][]uint64, cf.idx+1)
		copy(grown, m.pools)
		m.pools = grown
	}
	m.pools[cf.idx] = append(m.pools[cf.idx], regs)
}

// FuncAddr returns this machine's address for f.
func (m *Machine) FuncAddr(f *ir.Func) uint32 { return m.lay.funcAddr[f] }

// FuncAt resolves an address assigned by this machine's linker.
func (m *Machine) FuncAt(addr uint32) (*ir.Func, bool) {
	f, ok := m.lay.funcByAddr[addr]
	return f, ok
}

// GlobalAddr returns the loaded address of g on this machine.
func (m *Machine) GlobalAddr(g *ir.Global) uint32 { return m.lay.globalAddr[g] }

// Program returns the shared program this machine instantiates, nil for a
// private NewMachine-built machine.
func (m *Machine) Program() *Program { return m.prog }

func alignUp32(n, a uint32) uint32 { return (n + a - 1) / a * a }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

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
