package arch

import (
	"fmt"
	"testing"
)

func TestSpecsBasics(t *testing.T) {
	tests := []struct {
		spec    *Spec
		ptr     int
		endian  Endianness
		f64Algn int
	}{
		{ARM32(), 4, Little, 8},
		{X8664(), 8, Little, 8},
		{IA32(), 4, Little, 4},
		{POWER32BE(), 4, Big, 8},
	}
	for _, tt := range tests {
		if got := tt.spec.PointerBytes; got != tt.ptr {
			t.Errorf("%s: PointerBytes = %d, want %d", tt.spec.Name, got, tt.ptr)
		}
		if got := tt.spec.Endian; got != tt.endian {
			t.Errorf("%s: Endian = %v, want %v", tt.spec.Name, got, tt.endian)
		}
		if got := tt.spec.Align(ClassFloat64); got != tt.f64Algn {
			t.Errorf("%s: Align(f64) = %d, want %d", tt.spec.Name, got, tt.f64Algn)
		}
		if got := tt.spec.Size(ClassPtr); got != tt.ptr {
			t.Errorf("%s: Size(ptr) = %d, want %d", tt.spec.Name, got, tt.ptr)
		}
	}
}

func TestPerformanceRatioInTable1Band(t *testing.T) {
	// Table 1 reports the smartphone 5.36x-5.89x slower than the desktop.
	r := PerformanceRatio(ARM32(), X8664())
	if r < 5.3 || r > 5.9 {
		t.Errorf("PerformanceRatio(arm32, x86-64) = %.2f, want within Table 1 band [5.36, 5.89]", r)
	}
}

func TestCostTableSetAndGet(t *testing.T) {
	tab := DefaultCosts()
	if tab.Cycles(OpIntDiv) <= tab.Cycles(OpIntALU) {
		t.Error("integer divide should cost more than simple ALU")
	}
	tab.Set(OpLoad, 99)
	if got := tab.Cycles(OpLoad); got != 99 {
		t.Errorf("after Set, Cycles(OpLoad) = %d, want 99", got)
	}
}

func TestEndiannessString(t *testing.T) {
	if Little.String() != "little" || Big.String() != "big" {
		t.Error("Endianness.String mismatch")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassInt8: "i8", ClassInt64: "i64", ClassFloat64: "f64", ClassPtr: "ptr",
	} {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestSpecString(t *testing.T) {
	got := POWER32BE().String()
	want := "power32be(32-bit, big-endian)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestFingerprintIsTheCacheKeyItWas: the compilation cache keys on
// Fingerprint, so the string is held byte for byte to the formula it was
// first built with, on every shipped spec and on one with an edited cost.
func TestFingerprintIsTheCacheKeyItWas(t *testing.T) {
	formula := func(s *Spec) string {
		out := fmt.Sprintf("%s/%d/%s/%d", s.Name, s.PointerBytes, s.Endian, s.CyclePS)
		for c := Class(0); c < numClasses; c++ {
			out += fmt.Sprintf("/%d:%d", s.align[c], s.size[c])
		}
		for op := Op(0); op < numOps; op++ {
			out += fmt.Sprintf("/%d", s.Cost.Cycles(op))
		}
		return out
	}
	edited := X8664()
	edited.Cost.Set(OpFloatDiv, 1234567)
	for _, s := range []*Spec{ARM32(), X8664(), IA32(), POWER32BE(), edited} {
		if got, want := s.Fingerprint(), formula(s); got != want {
			t.Errorf("%s: Fingerprint() = %q, want %q", s.Name, got, want)
		}
	}
	if got, want := ARM32().Fingerprint(), X8664().Fingerprint(); got == want {
		t.Errorf("arm32 and x86-64 share the fingerprint %q", got)
	}
}
