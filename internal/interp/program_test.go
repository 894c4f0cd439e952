package interp

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
)

// runInstance binds one instance of prog and captures the same observation
// set the engine differential suite compares.
func runInstance(prog *Program, eng Engine, costScale int64) engineRun {
	return observe(prog.NewInstance(WithIO(NewStdIO(nil)), WithEngine(eng), WithCostScale(costScale)))
}

// plainMachine is the reference the shared-image tests compare instances
// against: privately compiled code (no cache) over a plain mem.New() page set
// the loader filled directly — no image, no overlay, no copy-on-write. It
// lives in test code only; shipped code binds through NewInstance alone.
func plainMachine(tb testing.TB, mod *ir.Module, cfg CompileConfig, opts ...InstanceOption) *Machine {
	tb.Helper()
	prog, err := Compile(mod, cfg, nil)
	if err != nil {
		tb.Fatalf("Compile: %v", err)
	}
	mm := mem.New()
	if err := writeGlobalInits(mm, mod, prog.cfg.Std, prog.lay, prog.cfg.InitUVAGlobals); err != nil {
		tb.Fatalf("load: %v", err)
	}
	m := prog.NewInstance(opts...)
	m.Mem, m.Heap.M, m.LocalHeap.M = mm, mm, mm
	return m
}

// runPlain runs mod on a plainMachine as the fidelity baseline.
func runPlain(t *testing.T, work *ir.Module, spec, std *arch.Spec, costScale int64) engineRun {
	t.Helper()
	return observe(plainMachine(t, work, CompileConfig{Name: "diff", Spec: spec, Std: std, InitUVAGlobals: true},
		WithIO(NewStdIO(nil)), WithCostScale(costScale)))
}

// TestSharedInstanceDifferential reruns the seeded random-program suite on
// shared-image instances: for every seed and arch binding, a fast and a ref
// instance of one cached Program must match a plain-memory reference machine
// bit for bit (output, exit code, steps, clock, component buckets, digest).
// Running two instances off the same Program back to back also pins session
// isolation — the first instance's writes must not leak into the second.
func TestSharedInstanceDifferential(t *testing.T) {
	seeds := 110
	if testing.Short() {
		seeds = 25
	}
	cache := NewCompilationCache()
	specs := diffSpecs()
	for seed := 0; seed < seeds; seed++ {
		mod := genProgram(int64(seed))
		for _, sp := range specs {
			label := fmt.Sprintf("seed=%d %s/std=%s", seed, sp.spec.Name, sp.std.Name)
			work := mod.Clone(mod.Name)
			ir.Lower(work, sp.spec, sp.std)
			plain := runPlain(t, work, sp.spec, sp.std, 1)
			prog, err := Compile(work, CompileConfig{
				Name: "diff", Spec: sp.spec, Std: sp.std, InitUVAGlobals: true,
			}, cache)
			if err != nil {
				t.Fatalf("%s: Compile: %v", label, err)
			}
			compareRuns(t, label+" shared-fast", runInstance(prog, EngineFast, 1), plain)
			compareRuns(t, label+" shared-ref", runInstance(prog, EngineRef, 1), plain)
			if t.Failed() {
				t.Fatalf("%s: shared instance diverged from the plain-memory machine", label)
			}
		}
	}
	if s := cache.Stats(); s.Hits != 0 || s.Misses != int64(seeds*len(specs)) {
		t.Errorf("cache stats = %+v, want %d misses and no hits", s, seeds*len(specs))
	}
}

// TestConcurrentCompileAndRun is the race-detector stress for the
// compile-once/instantiate-many contract: N goroutines bind the same module
// through one CompilationCache and run their instances in parallel. Exactly
// one compile may happen, every binder must get the same *Program and shared
// image pointer, and every run must be bit-identical to the plain-memory
// reference.
func TestConcurrentCompileAndRun(t *testing.T) {
	spec := arch.ARM32()
	mod := genProgram(777)
	work := mod.Clone(mod.Name)
	ir.Lower(work, spec, spec)
	plain := runPlain(t, work, spec, spec, 1)

	const n = 8
	cache := NewCompilationCache()
	cfg := CompileConfig{Name: "diff", Spec: spec, InitUVAGlobals: true}
	progs := make([]*Program, n)
	runs := make([]engineRun, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog, err := Compile(work, cfg, cache)
			if err != nil {
				t.Errorf("binder %d: Compile: %v", i, err)
				return
			}
			progs[i] = prog
			runs[i] = runInstance(prog, EngineFast, 1)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if s := cache.Stats(); s.Misses != 1 || s.Hits != n-1 || s.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 miss, %d hits, 1 entry", s, n-1)
	}
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Errorf("binder %d got a different *Program (%p vs %p)", i, progs[i], progs[0])
		}
		if progs[i].Image() != progs[0].Image() {
			t.Errorf("binder %d got a different image pointer", i)
		}
	}
	for i := 0; i < n; i++ {
		compareRuns(t, fmt.Sprintf("binder %d", i), runs[i], plain)
	}
}

// TestBindSmoke pins the O(1)-bind contract itself: a fresh instance holds
// zero private resident bytes (binding must not copy the image), starts from
// the exact present-page set and memory digest the loader leaves in plain
// memory, and
// a second Compile of the same module is a cache hit returning the same
// pointer. `make check` runs this as its bind smoke.
func TestBindSmoke(t *testing.T) {
	spec := arch.ARM32()
	mod := genProgram(4242)
	work := mod.Clone(mod.Name)
	ir.Lower(work, spec, spec)
	cache := NewCompilationCache()
	cfg := CompileConfig{Name: "diff", Spec: spec, InitUVAGlobals: true}

	prog, err := Compile(work, cfg, cache)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	inst := prog.NewInstance()
	if got := inst.Mem.ResidentPrivateBytes(); got != 0 {
		t.Fatalf("fresh instance holds %d private bytes; bind must not copy the image", got)
	}

	plain := plainMachine(t, work, cfg)
	if plain.Mem.Image() != nil || plain.cc == inst.cc {
		t.Fatalf("the reference machine shares the instance's image or code; it must be independent")
	}
	pp, ip := plain.Mem.PresentPages(), inst.Mem.PresentPages()
	if len(pp) != len(ip) {
		t.Fatalf("present pages: plain %d, instance %d", len(pp), len(ip))
	}
	for i := range pp {
		if pp[i] != ip[i] {
			t.Fatalf("present page %d: plain %#x, instance %#x", i, pp[i], ip[i])
		}
	}
	if pd, id := plain.Mem.Digest(), inst.Mem.Digest(); pd != id {
		t.Fatalf("initial digest: plain %#x, instance %#x", pd, id)
	}
	if got := inst.Mem.ResidentPrivateBytes(); got != 0 {
		t.Fatalf("digest materialized %d private bytes on a read-only instance", got)
	}

	again, err := Compile(work, cfg, cache)
	if err != nil {
		t.Fatalf("second Compile: %v", err)
	}
	if again != prog {
		t.Fatalf("second Compile returned a new *Program; want the cached one")
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", s)
	}
}

// TestDigestMemoBoundedByEntries: core.RunLocal/Profile clone the module per
// call into one process-wide cache. Every clone hits the first clone's entry,
// so only that first module may be remembered — a memo keyed by each clone's
// pointer would pin a whole lowered module per call, forever, and never hit.
// A module bound repeatedly through a stable pointer keeps its memo hit.
func TestDigestMemoBoundedByEntries(t *testing.T) {
	spec := arch.ARM32()
	mod := genProgram(99)
	cache := NewCompilationCache()
	cfg := CompileConfig{Name: "diff", Spec: spec, InitUVAGlobals: true}
	var first *ir.Module
	for i := 0; i < 100; i++ {
		work := mod.Clone(fmt.Sprintf("clone%d", i))
		ir.Lower(work, spec, spec)
		if i == 0 {
			first = work
		}
		if _, err := Compile(work, cfg, cache); err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Entries != 1 || s.Misses != 1 || s.Hits != 99 {
		t.Errorf("cache stats = %+v, want 1 entry, 1 miss, 99 hits", s)
	}
	if n := len(cache.digests); n != 1 {
		t.Errorf("digest memo holds %d modules after 100 clones, want 1", n)
	}
	if _, memoized := cache.moduleDigest(first); !memoized {
		t.Error("the module whose bind created the entry is not memoized")
	}
}
