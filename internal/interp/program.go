package interp

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
)

// Program is a module compiled once for one architecture binding: the
// pre-decoded instruction streams of every function, the linker's address
// assignment, and the initial memory image (code-adjacent data, rodata,
// initialized globals) frozen as an immutable mem.Image. A Program is
// content-addressed (see CompilationCache) and safe for any number of
// concurrent NewInstance machines — instances share the compiled code
// directly and overlay the image copy-on-write, so binding a new session
// costs O(1) and its resident bytes start at zero.
type Program struct {
	cfg   CompileConfig
	mod   *ir.Module
	lay   *linkage
	cc    *compiler
	image *mem.Image
}

// CompileConfig selects the architecture binding a module is compiled
// against. Everything here is baked into the compiled artifact (addresses,
// cost aggregates, trap messages, the initial image), so it is part of the
// cache key.
type CompileConfig struct {
	// Name labels the machines instantiated from this program ("mobile",
	// "server"); trap messages bake it in.
	Name string
	Spec *arch.Spec
	Std  *arch.Spec // defaults to Spec (conventional lowering)
	// FuncBase is where this program's linker places function addresses
	// (defaults to mem.FuncBaseMobile).
	FuncBase uint32
	// ShuffleFuncs/ShuffleGlobals model a different linker: name-sorted
	// assignment order, shifted data segment.
	ShuffleFuncs   bool
	ShuffleGlobals bool
	// InitUVAGlobals writes initial values of UVA-homed globals into the
	// image. Only the mobile side does this; the server receives those
	// pages via copy-on-demand.
	InitUVAGlobals bool
	// Instrument weaves the Listener's block join points into the compiled
	// code: a block-entry hook at every block's start pc. The §3.1 profiler
	// needs it; a plain program reports calls, returns and externs to a
	// Listener but no block transfer on the fast engine
	// (Machine.Instrumented).
	Instrument bool
}

func (cfg CompileConfig) withDefaults() CompileConfig {
	if cfg.Std == nil {
		cfg.Std = cfg.Spec
	}
	if cfg.FuncBase == 0 {
		cfg.FuncBase = mem.FuncBaseMobile
	}
	return cfg
}

// Compile builds the shared program artifact for mod under cfg: link,
// load the initial memory image, and pre-decode every function. The module
// must already be lowered (ir.Lower) against cfg.Std — pre-decoding bakes in
// layout-resolved sizes and strides, and nothing compiles after Compile
// returns. A non-nil cache memoizes the result under the (module digest,
// architecture binding) key; concurrent callers of an uncached key block on
// one compile.
func Compile(mod *ir.Module, cfg CompileConfig, cache *CompilationCache) (*Program, error) {
	if cache != nil {
		return cache.compile(mod, cfg)
	}
	return compileProgram(mod, cfg)
}

func compileProgram(mod *ir.Module, cfg CompileConfig) (*Program, error) {
	cfg = cfg.withDefaults()
	if cfg.Spec == nil {
		return nil, fmt.Errorf("interp: Compile needs an architecture spec")
	}
	if mod == nil {
		return nil, fmt.Errorf("interp: Compile needs a module")
	}
	if !mod.Lowered {
		return nil, fmt.Errorf("interp: Compile requires a lowered module (run ir.Lower against the standard spec first)")
	}
	lay := newLinkage(mod, cfg.Std, cfg.FuncBase, cfg.ShuffleFuncs, cfg.ShuffleGlobals)

	// Load the initial image into a scratch memory and freeze it: the
	// image holds exactly the pages the loader touched, so an instance's
	// present-page set is that of a machine loaded into plain memory.
	scratch := mem.New()
	if err := writeGlobalInits(scratch, mod, cfg.Std, lay, cfg.InitUVAGlobals); err != nil {
		return nil, err
	}
	img := mem.Snapshot(scratch)
	scratch.Release()

	cc := compileModule(cfg, lay, mod)
	return &Program{cfg: cfg, mod: mod, lay: lay, cc: cc, image: img}, nil
}

// Name returns the machine name baked into the program.
func (p *Program) Name() string { return p.cfg.Name }

// Image returns the shared initial memory image.
func (p *Program) Image() *mem.Image { return p.image }

// InstanceOption configures one instance of a shared program.
type InstanceOption func(*instanceConfig)

type instanceConfig struct {
	io        IOHost
	costScale int64
	engine    Engine
}

// WithIO sets the instance's I/O host (defaults to NewStdIO(nil)).
func WithIO(io IOHost) InstanceOption { return func(c *instanceConfig) { c.io = io } }

// WithCostScale amplifies compute charges (see Machine.CostScale).
func WithCostScale(s int64) InstanceOption { return func(c *instanceConfig) { c.costScale = s } }

// WithEngine selects the execution engine. EngineRef instances interpret
// the IR tree directly (they still share the program's image and address
// layout); the default EngineFast runs the shared pre-decoded code.
func WithEngine(e Engine) InstanceOption { return func(c *instanceConfig) { c.engine = e } }

// NewInstance binds a new session machine to the shared program: fresh
// registers, clock and heap state over a copy-on-write overlay of the
// program image. The compiled code, address layout and image are shared
// with every other instance, so the bind itself allocates no pages — the
// instance pays memory only for pages it writes. Instances are not
// individually thread-safe (a Machine never was), but any number of
// instances of one Program may run concurrently.
func (p *Program) NewInstance(opts ...InstanceOption) *Machine {
	var cfg instanceConfig
	for _, o := range opts {
		o(&cfg)
	}
	m := &Machine{
		Name:      p.cfg.Name,
		Spec:      p.cfg.Spec,
		Std:       p.cfg.Std,
		Mod:       p.mod,
		Mem:       mem.NewOverlay(p.image),
		CostScale: 1,
		IO:        NewStdIO(nil),
		Engine:    cfg.engine,
		lay:       p.lay,
		cc:        p.cc,
		sp:        p.mod.StackBase,
		spFloor:   p.mod.StackBase - mem.StackBytes,
	}
	if cfg.costScale > 0 {
		m.CostScale = cfg.costScale
	}
	if cfg.io != nil {
		m.IO = cfg.io
	}
	m.ResolveFptr = func(addr uint32, mapped bool) (*ir.Func, error) {
		f, ok := m.FuncAt(addr)
		if !ok {
			return nil, fmt.Errorf("interp(%s): no function at address 0x%x (unmapped cross-machine pointer?)", m.Name, addr)
		}
		return f, nil
	}
	m.Heap = mem.UVAHeap(m.Mem)
	m.LocalHeap = mem.NewAllocator(m.Mem, mem.LocalBase+0x0100_0000, mem.LocalBase+0x0200_0000)
	return m
}
