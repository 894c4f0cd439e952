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
// against. It mirrors the machine-identity subset of Config: everything
// here is baked into the compiled artifact (addresses, cost aggregates,
// trap messages, the initial image), so it is part of the cache key.
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
// must already be lowered (ir.Lower) against cfg.Std — shared code cannot
// compile lazily, so the layout must be final. A non-nil cache memoizes the
// result under the (module digest, architecture binding) key; concurrent
// callers of an uncached key block on one compile.
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

	// Load the initial image into a scratch memory and freeze it. The
	// scratch memory materializes exactly the pages a NewMachine loader
	// would, so an instance's present-page set is bit-identical to a
	// private machine's.
	scratch := mem.New()
	if err := writeGlobalInits(scratch, mod, cfg.Std, lay, cfg.InitUVAGlobals); err != nil {
		return nil, err
	}
	img := mem.Snapshot(scratch)

	cc := newCompiler(cfg.Name, cfg.Spec, cfg.Std, lay, len(mod.Funcs))
	for _, f := range mod.Funcs {
		if !f.IsExtern() {
			cc.ensureCompiled(f)
		}
	}
	cc.sealed = true
	return &Program{cfg: cfg, mod: mod, lay: lay, cc: cc, image: img}, nil
}

// Module returns the module this program was compiled from.
func (p *Program) Module() *ir.Module { return p.mod }

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

// WithCostScale amplifies compute charges (see Config.CostScale).
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
	m := newMachineShell(p.cfg.Name, p.cfg.Spec, p.cfg.Std, p.mod, mem.NewOverlay(p.image), p.lay, p.cc)
	m.prog = p
	m.Engine = cfg.engine
	if cfg.costScale > 0 {
		m.CostScale = cfg.costScale
	}
	if cfg.io != nil {
		m.IO = cfg.io
	}
	m.pools = make([][][]uint64, p.cc.nfuncs)
	return m
}
