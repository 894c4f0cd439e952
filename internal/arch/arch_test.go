package arch

import "testing"

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
