package interp

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/ir/analysis"
	"repro/internal/simtime"
)

// hookEvent is one Listener observation with everything a hook can read off
// the machine at that instant.
type hookEvent struct {
	kind  string
	where string
	clock simtime.PS
	steps int64
	sp    uint32
}

// region is one live function activation (loop == nil) or open loop of the
// hookTrace's page accounting.
type region struct {
	name  string
	loop  *analysis.Loop
	pages map[uint32]struct{}
}

// hookTrace records every Listener join point in order and keeps page sets
// the way a footprint profiler does: the live regions nest — a function
// activation, the loops open in it, its callees — a reported page counts for
// the innermost live region, and a region that closes hands its pages to the
// one enclosing it. With invalidate set it keeps to Memory.Touch's contract
// for holders of cached page pointers and calls Memory.Invalidate whenever a
// region opens.
type hookTrace struct {
	m          *Machine
	invalidate bool
	events     []hookEvent
	inner      map[*ir.Func][]*analysis.Loop // innermost loop of each block, by Block.Index
	live       []region
	closed     []string // "name: sorted pages" of every region, in closing order
}

func (h *hookTrace) add(kind, where string) {
	h.events = append(h.events, hookEvent{kind, where, h.m.Clock, h.m.Steps, h.m.SP()})
}

func (h *hookTrace) open(name string, loop *analysis.Loop) {
	h.live = append(h.live, region{name, loop, make(map[uint32]struct{})})
	if h.invalidate {
		h.m.Mem.Invalidate()
	}
}

func (h *hookTrace) close() {
	r := h.live[len(h.live)-1]
	h.live = h.live[:len(h.live)-1]
	pns := make([]uint32, 0, len(r.pages))
	for pn := range r.pages {
		pns = append(pns, pn)
		if len(h.live) > 0 {
			h.live[len(h.live)-1].pages[pn] = struct{}{}
		}
	}
	slices.Sort(pns)
	h.closed = append(h.closed, fmt.Sprintf("%s: %v", r.name, pns))
}

func (h *hookTrace) touch(pn uint32) {
	if len(h.live) > 0 {
		h.live[len(h.live)-1].pages[pn] = struct{}{}
	}
}

// EnterFunc and ExitFunc log an extern's entry and exit, which open no
// region: an extern has no blocks and touches pages on its caller's behalf.
func (h *hookTrace) EnterFunc(m *Machine, f *ir.Func) {
	h.add("enter", f.Nam)
	if f.IsExtern() {
		return
	}
	if h.inner[f] == nil {
		cfg, err := analysis.BuildCFG(f)
		if err != nil {
			panic(err)
		}
		inner := make([]*analysis.Loop, len(f.Blocks))
		for _, l := range analysis.FindLoops(cfg, analysis.Dominators(cfg)).Loops { // outermost first
			for b := range l.Blocks {
				if cur := inner[b.Index]; cur == nil || len(l.Blocks) < len(cur.Blocks) {
					inner[b.Index] = l
				}
			}
		}
		h.inner[f] = inner
	}
	h.open(f.Nam, nil)
}

func (h *hookTrace) ExitFunc(m *Machine, f *ir.Func) {
	h.add("exit", f.Nam)
	if f.IsExtern() {
		return
	}
	for h.live[len(h.live)-1].loop != nil {
		h.close()
	}
	h.close()
}

// EnterBlock closes the open loops the block is outside of and opens the
// ones it is newly inside, outermost first.
func (h *hookTrace) EnterBlock(m *Machine, f *ir.Func, b *ir.Block) {
	h.add("block", f.Nam+"."+b.Nam)
	target := h.inner[f][b.Index]
	within := func(l *analysis.Loop) bool {
		for t := target; t != nil; t = t.Parent {
			if t == l {
				return true
			}
		}
		return false
	}
	for h.live[len(h.live)-1].loop != nil && !within(h.live[len(h.live)-1].loop) {
		h.close()
	}
	var opening []*analysis.Loop
	for l := target; l != h.live[len(h.live)-1].loop; l = l.Parent {
		opening = append(opening, l)
	}
	slices.Reverse(opening)
	for _, l := range opening {
		h.open(f.Nam+"/"+l.Header.Nam, l)
	}
}

// traced runs main on m with a hookTrace as its Listener and Touch observer.
func traced(m *Machine, invalidate bool) (engineRun, *hookTrace) {
	h := &hookTrace{m: m, invalidate: invalidate, inner: make(map[*ir.Func][]*analysis.Loop)}
	m.Listener = h
	m.Mem.Touch = h.touch
	return observe(m), h
}

// nestedRegionsProgram re-reads one page of a global array from main, from two
// nested loops and from a callee, so every region that opens finds the page
// already in the read cache, and writes the array's second page from the
// inner loop only.
func nestedRegionsProgram() *ir.Module {
	mod := ir.NewModule("nested")
	b := ir.NewBuilder(mod)
	arr := b.GlobalVar("arr", ir.Array(ir.I64, 1024))
	leaf := b.NewFunc("leaf", ir.I64, ir.P("k", ir.I64))
	b.Ret(b.Load(b.Index(arr, leaf.Params[0])))
	b.NewFunc("main", ir.I32)
	acc := b.Alloca(ir.I64)
	b.Store(acc, b.Load(b.Index(arr, ir.Int64(0))))
	b.For("i", ir.Int64(0), ir.Int64(3), ir.Int64(1), func(i ir.Value) {
		b.Store(acc, b.Add(b.Load(acc), b.Load(b.Index(arr, i))))
		b.For("j", ir.Int64(0), ir.Int64(3), ir.Int64(1), func(j ir.Value) {
			b.Store(acc, b.Add(b.Load(acc), b.Call(leaf, j)))
			b.Store(b.Index(arr, b.Add(j, ir.Int64(600))), b.Load(acc))
		})
	})
	b.Ret(b.Convert(ir.ConvTrunc, b.Load(acc), ir.I32))
	b.Finish()
	return mod
}

// TestInstrumentedHooksMatchReferenceEngine holds the fast engine's woven-in
// join points to the reference engine's: over the seeded random programs and
// a program of nested regions on every arch binding, plus the trap and exit()
// unwinds, both engines must deliver the same Listener sequence — function
// entries and exits (on the error path too), block entries — each at the same
// clock, step count and stack pointer. Page reports differ by design: the
// reference engine reports every access, the fast engine's page caches report
// a page when they fill an entry. What must agree is what an observer keeping
// Memory.Touch's contract derives from them: the page set of every function
// activation and every loop activation, in closing order. An observer that
// never invalidates is the control: it must miss pages somewhere. The
// instrumented run must also be the plain fast run in everything a program
// can observe.
func TestInstrumentedHooksMatchReferenceEngine(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	cells := diffCells(seeds)
	for _, sp := range diffSpecs() {
		cells = append(cells, diffCell{fmt.Sprintf("nested %s/std=%s", sp.spec.Name, sp.std.Name), nestedRegionsProgram(), sp.spec, sp.std})
	}
	missed := 0
	for _, c := range cells {
		work := c.mod.Clone(c.mod.Name)
		ir.Lower(work, c.spec, c.std)
		cfg := CompileConfig{Name: "diff", Spec: c.spec, Std: c.std, InitUVAGlobals: true}
		plain := observe(bind(t, work, cfg, WithIO(NewStdIO(nil))))
		refRun, ref := traced(bind(t, work, cfg, WithIO(NewStdIO(nil)), WithEngine(EngineRef)), false)
		cfg.Instrument = true
		fastRun, fast := traced(bind(t, work, cfg, WithIO(NewStdIO(nil))), true)
		_, lazy := traced(bind(t, work, cfg, WithIO(NewStdIO(nil))), false)

		compareRuns(t, c.label+" instrumented-vs-plain", fastRun, plain)
		compareRuns(t, c.label+" instrumented-vs-ref", fastRun, refRun)
		if len(fast.events) == 0 {
			t.Fatalf("%s: no hook fired", c.label)
		}
		if i := firstDiff(fast.events, ref.events); i >= 0 {
			t.Fatalf("%s: hook traces diverge at event %d of %d/%d:\n fast: %+v\n  ref: %+v", c.label, i,
				len(fast.events), len(ref.events), fast.events[min(i, len(fast.events)-1)], ref.events[min(i, len(ref.events)-1)])
		}
		if i := firstDiff(fast.closed, ref.closed); i >= 0 {
			t.Fatalf("%s: page sets diverge at region %d of %d/%d:\n fast: %s\n  ref: %s", c.label, i,
				len(fast.closed), len(ref.closed), fast.closed[min(i, len(fast.closed)-1)], ref.closed[min(i, len(ref.closed)-1)])
		}
		if firstDiff(lazy.closed, ref.closed) >= 0 {
			missed++
		}
	}
	if missed == 0 {
		t.Error("vacuous: an observer that never invalidates saw every region's pages too")
	}
}

// firstDiff returns the first index at which a and b differ, -1 if they are
// equal.
func firstDiff[T comparable](a, b []T) int {
	if slices.Equal(a, b) {
		return -1
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestInstrumentedProgramIsSeparateCacheEntry: the plain and the instrumented
// compile of one module are distinct content addresses, the plain program's
// streams carry no hook op at all (it pays nothing per block), and the
// instrumented ones carry exactly one per basic block.
func TestInstrumentedProgramIsSeparateCacheEntry(t *testing.T) {
	spec := arch.ARM32()
	work := genProgram(11)
	ir.Lower(work, spec, spec)
	cache := NewCompilationCache()
	cfg := CompileConfig{Name: "p", Spec: spec, InitUVAGlobals: true}
	plain, err := Compile(work, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Instrument = true
	inst, err := Compile(work, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if plain == inst {
		t.Fatal("plain and instrumented compiles share one Program")
	}
	if s := cache.Stats(); s.Entries != 2 || s.Misses != 2 || s.Hits != 0 {
		t.Errorf("cache stats = %+v, want 2 entries from 2 misses", s)
	}
	if again, _ := Compile(work, cfg, cache); again != inst {
		t.Error("second instrumented compile missed the cache")
	}
	hooks := func(p *Program) (n, blocks int) {
		for f, cf := range p.cc.cfuncs {
			blocks += len(f.Blocks)
			for i := range cf.code {
				if cf.code[i].op == cEnterBlock {
					n++
				}
			}
		}
		return n, blocks
	}
	if n, _ := hooks(plain); n != 0 {
		t.Errorf("plain program carries %d cEnterBlock ops, want none", n)
	}
	if n, blocks := hooks(inst); n != blocks || blocks == 0 {
		t.Errorf("instrumented program carries %d cEnterBlock ops for %d blocks", n, blocks)
	}
	if plain.NewInstance().Instrumented() || !inst.NewInstance().Instrumented() ||
		!plain.NewInstance(WithEngine(EngineRef)).Instrumented() {
		t.Error("Machine.Instrumented: want false for plain/fast, true for instrumented/fast and plain/ref")
	}
}
