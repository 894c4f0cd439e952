package interp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/goldentest"
	"repro/internal/simtime"
)

// runSampled executes the call kernel with a sampler attached and returns
// the flushed sampler plus the machine's final clock.
func runSampled(t *testing.T, eng Engine, period simtime.PS) (*Sampler, simtime.PS) {
	t.Helper()
	m, kern := kernelMachine(t, callKernelModule(512), eng)
	s := NewSampler(period)
	m.SetSampler(s)
	if _, err := m.CallFunc(kern); err != nil {
		t.Fatal(err)
	}
	s.Flush(m.Clock)
	return s, m.Clock
}

// TestSamplerTotalMatchesClock is the headline accounting invariant: after
// Flush, every simulated picosecond the machine ran is attributed to some
// stack, on both engines, regardless of period.
func TestSamplerTotalMatchesClock(t *testing.T) {
	for _, eng := range []Engine{EngineFast, EngineRef} {
		for _, period := range []simtime.PS{0, simtime.Microsecond, 100 * simtime.Microsecond} {
			s, clock := runSampled(t, eng, period)
			if s.Total() != int64(clock) {
				t.Errorf("engine %v period %v: Total = %d, Clock = %d", eng, period, s.Total(), clock)
			}
			if s.Samples() == 0 {
				t.Errorf("engine %v period %v: no samples fired", eng, period)
			}
		}
	}
}

// TestSamplerDeterminism: two identical runs fold to byte-identical
// profiles — the acceptance bar for golden-testing anything downstream.
func TestSamplerDeterminism(t *testing.T) {
	a, _ := runSampled(t, EngineFast, simtime.Microsecond)
	b, _ := runSampled(t, EngineFast, simtime.Microsecond)
	if a.Folded() != b.Folded() {
		t.Errorf("identical runs produced different profiles:\n--- a\n%s--- b\n%s", a.Folded(), b.Folded())
	}
}

// TestSamplerStacks checks the folded output has the expected shape: the
// callee attributed under the caller, and TopFuncs consistent with it.
func TestSamplerStacks(t *testing.T) {
	s, clock := runSampled(t, EngineFast, simtime.Microsecond)
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
	if s.Total() != 0 || s.Samples() != 0 || s.Folded() != "" || s.TopFuncs() != nil || s.Period() != 0 {
		t.Error("nil sampler leaked state")
	}
	if err := s.WriteFolded(&strings.Builder{}, "x"); err != nil {
		t.Error(err)
	}
	m, kern := kernelMachine(t, loopKernelModule(16), EngineFast)
	m.SetSampler(nil) // detached machine must run unchanged
	if _, err := m.CallFunc(kern); err != nil {
		t.Fatal(err)
	}
	if m.Sampler() != nil {
		t.Error("Sampler() not nil after detach")
	}
}

// TestSamplerDisabledZeroAlloc extends the steady-state guarantee: the
// sampler guard in the hot loop costs no allocations when no sampler is
// attached (the existing TestFastEngineZeroAllocSteadyState covers the
// same paths; this one exists so a regression points at the sampler).
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
// folded map keys exist, further attribution reuses the scratch key and
// the steady state stays allocation-free too.
func TestSamplerEnabledSteadyAlloc(t *testing.T) {
	m, kern := kernelMachine(t, loopKernelModule(256), EngineFast)
	s := NewSampler(simtime.Microsecond)
	m.SetSampler(s)
	if _, err := m.CallFunc(kern); err != nil { // warm: intern the stack keys
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := m.CallFunc(kern); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("sampler-enabled steady state: %.1f allocs/run, want 0", allocs)
	}
}

// TestSamplerGoldenCallKernel pins the fast engine's sampling instants. A
// tick attributes the interval since the last one to the stack it finds, so
// the folded weights depend on exactly where the clock advances and in what
// order relative to calls and returns; at the 7 ns period (about ten ticks a
// loop iteration) nearly every segment's charge crosses a boundary.
// Regenerate (`make golden`) only for an intended change to when the fast
// engine charges.
func TestSamplerGoldenCallKernel(t *testing.T) {
	var buf bytes.Buffer
	for _, period := range []simtime.PS{simtime.Microsecond, 7 * simtime.Nanosecond} {
		s, clock := runSampled(t, EngineFast, period)
		fmt.Fprintf(&buf, "== period=%d samples=%d total=%d clock=%d\n%s",
			int64(period), s.Samples(), s.Total(), int64(clock), s.Folded())
	}
	goldentest.Check(t, "sampler_callkernel.golden", buf.Bytes())
}
