package interp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/goldentest"
	"repro/internal/ir"
	"repro/internal/simtime"
)

// runSampled executes the call kernel with a stack profile attached and
// returns the flushed profile plus the machine's final clock.
func runSampled(t *testing.T, eng Engine) (*Sampler, simtime.PS) {
	t.Helper()
	m, kern := kernelMachine(t, callKernelModule(512), eng)
	s := NewSampler()
	s.Attach(m)
	if _, err := m.CallFunc(kern); err != nil {
		t.Fatal(err)
	}
	s.Flush(m.Clock)
	return s, m.Clock
}

// TestSamplerTotalMatchesClock is the headline accounting invariant: after
// Flush, every simulated picosecond the machine ran is attributed to some
// stack, on both engines.
func TestSamplerTotalMatchesClock(t *testing.T) {
	for _, eng := range []Engine{EngineFast, EngineRef} {
		s, clock := runSampled(t, eng)
		if s.Total() != int64(clock) {
			t.Errorf("engine %v: Total = %d, Clock = %d", eng, s.Total(), clock)
		}
	}
}

// TestSamplerEnginesAgree: the profile is charged at call, return and extern
// boundaries only, where the fast engine's clock is the reference engine's,
// so both engines fold byte-identical profiles: of the call kernel, of the
// seeded random programs and the trapping ones (whose frames unwind), and of
// a program built around the runtime's externs.
func TestSamplerEnginesAgree(t *testing.T) {
	fast, _ := runSampled(t, EngineFast)
	ref, _ := runSampled(t, EngineRef)
	if fast.Folded() != ref.Folded() {
		t.Errorf("call kernel: fast and ref profiles differ:\n--- fast\n%s--- ref\n%s", fast.Folded(), ref.Folded())
	}
	arm := arch.ARM32()
	cells := append(diffCells(4), diffCell{"sys-externs", sysExternProgram(), arm, arm})
	for _, c := range cells {
		work := c.mod.Clone(c.mod.Name)
		ir.Lower(work, c.spec, c.std)
		cfg := CompileConfig{Name: "diff", Spec: c.spec, Std: c.std, InitUVAGlobals: true}
		var folded [2]string
		for i, eng := range []Engine{EngineFast, EngineRef} {
			m := bind(t, work, cfg, WithEngine(eng))
			s := NewSampler()
			s.Attach(m)
			observed(m)
			s.Flush(m.Clock)
			if s.Total() != int64(m.Clock) {
				t.Errorf("%s on %v: Total = %d, Clock = %d", c.label, eng, s.Total(), m.Clock)
			}
			folded[i] = s.Folded()
		}
		if folded[0] != folded[1] {
			t.Errorf("%s: fast and ref profiles differ:\n--- fast\n%s--- ref\n%s", c.label, folded[0], folded[1])
		}
		if c.label == "sys-externs" && !strings.Contains(folded[0], "main;r_fopen ") {
			t.Errorf("%s: no extern stack in the profile:\n%s", c.label, folded[0])
		}
	}
}

// TestSamplerIsExact: a stack's weight is the time it was current, so
// kern;leaf weighs what a Listener timing leaf from entry to exit sums —
// 3 481 600 ps over the call kernel's 512 calls — on both engines.
func TestSamplerIsExact(t *testing.T) {
	for _, eng := range []Engine{EngineFast, EngineRef} {
		s, _ := runSampled(t, eng)
		m, kern := kernelMachine(t, callKernelModule(512), eng)
		timer := &leafTimer{}
		m.Listener = timer
		if _, err := m.CallFunc(kern); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("kern;leaf %d\n", timer.sum)
		if timer.sum != 3481600 || !strings.Contains(s.Folded(), want) {
			t.Errorf("engine %v: leaf timed %d ps, want 3481600; profile:\n%s", eng, timer.sum, s.Folded())
		}
	}
}

// leafTimer sums the time from every entry of leaf to its exit.
type leafTimer struct {
	entered simtime.PS
	sum     int64
}

func (l *leafTimer) EnterFunc(m *Machine, f *ir.Func) {
	if f.Nam == "leaf" {
		l.entered = m.Clock
	}
}

func (l *leafTimer) ExitFunc(m *Machine, f *ir.Func) {
	if f.Nam == "leaf" {
		l.sum += int64(m.Clock - l.entered)
	}
}

func (*leafTimer) EnterBlock(*Machine, *ir.Func, *ir.Block) {}

// TestSamplerAttachedToLiveFrames: a profile attached while frames are live
// ignores their exits, which have no matching entry, and still charges every
// picosecond from the attach on — attached from inside leaf's first entry on
// both engines, and to a server suspended at accept before its Resume.
func TestSamplerAttachedToLiveFrames(t *testing.T) {
	for _, eng := range []Engine{EngineFast, EngineRef} {
		m, kern := kernelMachine(t, callKernelModule(512), eng)
		s := NewSampler()
		probe := &attachInLeaf{s: s}
		m.Listener = probe
		if _, err := m.CallFunc(kern); err != nil {
			t.Fatal(err)
		}
		s.Flush(m.Clock)
		if at := probe.at; at == 0 || s.Total() != int64(m.Clock-at) {
			t.Errorf("engine %v: attached at %d, Total = %d, want Clock-attach = %d", eng, at, s.Total(), m.Clock-at)
		}
		if !strings.Contains(s.Folded(), "\nleaf ") {
			t.Errorf("engine %v: later leaf calls missing from the profile:\n%s", eng, s.Folded())
		}
	}

	mod := listenModule()
	ir.Lower(mod, arch.ARM32(), arch.ARM32())
	m := bind(t, mod, CompileConfig{Name: "server", Spec: arch.ARM32()})
	h := &taskHost{hostObserver: hostObserver{StdIO: NewStdIO(nil), m: m}}
	m.Sys = h
	if _, err := m.RunMain(); !errors.Is(err, ErrSuspended) {
		t.Fatalf("RunMain = %v, want ErrSuspended", err)
	}
	m.AddTime(simtime.Microsecond, CompCompute)
	s := NewSampler()
	s.Attach(m)
	at := m.Clock
	h.arg = 1
	if _, err := m.Resume(3); !errors.Is(err, ErrSuspended) {
		t.Fatalf("Resume(3) = %v, want ErrSuspended at the next accept", err)
	}
	if _, err := m.Resume(0); err != nil {
		t.Fatalf("Resume(0): %v", err)
	}
	s.Flush(m.Clock)
	if s.Total() != int64(m.Clock-at) || s.cur != 0 {
		t.Errorf("server: Total = %d, want Clock-attach = %d; current stack node %d", s.Total(), m.Clock-at, s.cur)
	}
}

// attachInLeaf attaches s from inside leaf's first entry, recording the
// clock it attached at.
type attachInLeaf struct {
	s  *Sampler
	at simtime.PS
}

func (a *attachInLeaf) EnterFunc(m *Machine, f *ir.Func) {
	if f.Nam == "leaf" {
		a.at = m.Clock
		a.s.Attach(m)
	}
}

func (*attachInLeaf) ExitFunc(*Machine, *ir.Func)              {}
func (*attachInLeaf) EnterBlock(*Machine, *ir.Func, *ir.Block) {}

// TestSamplerDeterminism: two identical runs fold to byte-identical
// profiles — the acceptance bar for golden-testing anything downstream.
func TestSamplerDeterminism(t *testing.T) {
	a, _ := runSampled(t, EngineFast)
	b, _ := runSampled(t, EngineFast)
	if a.Folded() != b.Folded() {
		t.Errorf("identical runs produced different profiles:\n--- a\n%s--- b\n%s", a.Folded(), b.Folded())
	}
}

// TestSamplerStacks checks the folded output has the expected shape: the
// callee attributed under the caller, and TopFuncs consistent with it.
func TestSamplerStacks(t *testing.T) {
	s, clock := runSampled(t, EngineFast)
	folded := s.Folded()
	if !strings.Contains(folded, "kern;leaf ") {
		t.Errorf("profile missing kern;leaf stack:\n%s", folded)
	}
	top := s.TopFuncs()
	if len(top) == 0 {
		t.Fatal("TopFuncs empty")
	}
	var kern *FuncStat
	for i := range top {
		if top[i].Name == "kern" {
			kern = &top[i]
		}
		if top[i].CumPS < top[i].SelfPS {
			t.Errorf("%s: cum %d < self %d", top[i].Name, top[i].CumPS, top[i].SelfPS)
		}
	}
	if kern == nil {
		t.Fatal("kern missing from TopFuncs")
	}
	// kern is the root: everything attributed while the kernel ran is
	// cumulative under it.
	if kern.CumPS != int64(clock) {
		t.Errorf("kern cum = %d, want whole clock %d", kern.CumPS, clock)
	}

	var sb strings.Builder
	if err := s.WriteFolded(&sb, "mobile"); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.SplitAfter(sb.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "mobile;") {
			t.Errorf("rooted folded line missing prefix: %q", line)
		}
	}
}

// TestSamplerNil pins nil-safety of the whole exported surface.
func TestSamplerNil(t *testing.T) {
	var s *Sampler
	s.Flush(simtime.Second)
	if s.Total() != 0 || s.Folded() != "" || s.TopFuncs() != nil {
		t.Error("nil sampler leaked state")
	}
	if err := s.WriteFolded(&strings.Builder{}, "x"); err != nil {
		t.Error(err)
	}
}

// TestSamplerDisabledZeroAlloc extends the steady-state guarantee: a machine
// without a profile allocates nothing (TestFastEngineZeroAllocSteadyState
// covers the same paths; this one exists so a regression points at the
// profile's hooks).
func TestSamplerDisabledZeroAlloc(t *testing.T) {
	m, kern := kernelMachine(t, loopKernelModule(256), EngineFast)
	if _, err := m.CallFunc(kern); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := m.CallFunc(kern); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("sampler-disabled steady state: %.1f allocs/run, want 0", allocs)
	}
}

// TestSamplerEnabledSteadyAlloc documents the enabled-path cost: once the
// call tree holds every stack, an entry only finds its node and a charge only
// adds, so the steady state stays allocation-free too, calls included.
func TestSamplerEnabledSteadyAlloc(t *testing.T) {
	for _, mod := range []*ir.Module{loopKernelModule(256), callKernelModule(256)} {
		m, kern := kernelMachine(t, mod, EngineFast)
		NewSampler().Attach(m)
		if _, err := m.CallFunc(kern); err != nil { // warm: grow the call tree
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := m.CallFunc(kern); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: sampler-enabled steady state: %.1f allocs/run, want 0", mod.Name, allocs)
		}
	}
}

// TestSamplerGoldenCallKernel pins the fast engine's clock at every call,
// return and extern boundary of the call kernel: each folded weight is the
// time between two of them. Regenerate (`make golden`) only for an intended
// change to what the guest's instructions cost.
func TestSamplerGoldenCallKernel(t *testing.T) {
	var buf bytes.Buffer
	s, clock := runSampled(t, EngineFast)
	fmt.Fprintf(&buf, "== total=%d clock=%d\n%s", s.Total(), int64(clock), s.Folded())
	goldentest.Check(t, "sampler_callkernel.golden", buf.Bytes())
}
