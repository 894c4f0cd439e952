package interp

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/simtime"
)

// hookEvent is one Listener or Touch observation with everything a hook can
// read off the machine at that instant.
type hookEvent struct {
	kind  string
	where string
	page  uint32
	clock simtime.PS
	steps int64
	sp    uint32
}

// hookTrace records every join point in order.
type hookTrace struct {
	m      *Machine
	events []hookEvent
}

func (h *hookTrace) add(kind, where string, page uint32) {
	h.events = append(h.events, hookEvent{kind, where, page, h.m.Clock, h.m.Steps, h.m.SP()})
}
func (h *hookTrace) EnterFunc(m *Machine, f *ir.Func) { h.add("enter", f.Nam, 0) }
func (h *hookTrace) ExitFunc(m *Machine, f *ir.Func)  { h.add("exit", f.Nam, 0) }
func (h *hookTrace) EnterBlock(m *Machine, f *ir.Func, b *ir.Block) {
	h.add("block", f.Nam+"."+b.Nam, 0)
}

// traced runs main on m with a recording Listener and Touch attached.
func traced(m *Machine) (engineRun, []hookEvent) {
	h := &hookTrace{m: m}
	m.Listener = h
	m.Mem.Touch = func(pn uint32) { h.add("touch", "", pn) }
	return observe(m), h.events
}

// TestInstrumentedHooksMatchReferenceEngine holds the fast engine's woven-in
// join points to the reference engine's: over the seeded random programs on
// every arch binding, plus the trap and exit() unwinds, both engines must
// deliver the same hook sequence — function entries and exits (on the error
// path too), block entries, page touches — each at the same clock, step
// count and stack pointer. The instrumented run must also be the plain fast
// run in everything a program can observe.
func TestInstrumentedHooksMatchReferenceEngine(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for _, c := range diffCells(seeds) {
		work := c.mod.Clone(c.mod.Name)
		ir.Lower(work, c.spec, c.std)
		cfg := CompileConfig{Name: "diff", Spec: c.spec, Std: c.std, InitUVAGlobals: true}
		plain := observe(bind(t, work, cfg, WithIO(NewStdIO(nil))))
		refRun, refEvents := traced(bind(t, work, cfg, WithIO(NewStdIO(nil)), WithEngine(EngineRef)))
		cfg.Instrument = true
		fastRun, fastEvents := traced(bind(t, work, cfg, WithIO(NewStdIO(nil))))

		compareRuns(t, c.label+" instrumented-vs-plain", fastRun, plain)
		compareRuns(t, c.label+" instrumented-vs-ref", fastRun, refRun)
		if len(fastEvents) == 0 {
			t.Fatalf("%s: no hook fired", c.label)
		}
		if !slices.Equal(fastEvents, refEvents) {
			i := 0
			for i < len(fastEvents) && i < len(refEvents) && fastEvents[i] == refEvents[i] {
				i++
			}
			t.Fatalf("%s: hook traces diverge at event %d of %d/%d:\n fast: %+v\n  ref: %+v", c.label, i,
				len(fastEvents), len(refEvents), fastEvents[min(i, len(fastEvents)-1)], refEvents[min(i, len(refEvents)-1)])
		}
	}
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
