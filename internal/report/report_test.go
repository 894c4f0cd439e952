package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tab := New("demo", "Name", "Value")
	tab.Add("short", 1.5)
	tab.Add("a much longer name", 123456)
	tab.Note("a footnote with %d%%", 50)
	s := tab.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if !strings.HasPrefix(lines[0], "== demo ==") {
		t.Errorf("missing title: %q", lines[0])
	}
	// Column starts align between header and rows.
	hdrIdx := strings.Index(lines[1], "Value")
	rowIdx := strings.Index(lines[3], "1.50")
	if hdrIdx != rowIdx {
		t.Errorf("columns misaligned: header at %d, row at %d\n%s", hdrIdx, rowIdx, s)
	}
	if !strings.Contains(s, "note: a footnote with 50%") {
		t.Errorf("footnote missing:\n%s", s)
	}
}

func TestFloatFormatting(t *testing.T) {
	tab := New("", "v")
	tab.Add(3.14159)
	if !strings.Contains(tab.String(), "3.14") || strings.Contains(tab.String(), "3.14159") {
		t.Errorf("floats should render with 2 decimals: %s", tab.String())
	}
}

func TestBar(t *testing.T) {
	if got := Bar(0.5, 1, 10); got != "#####" {
		t.Errorf("Bar(0.5,1,10) = %q", got)
	}
	if got := Bar(2, 1, 10); got != "##########" {
		t.Errorf("Bar should clamp at width: %q", got)
	}
	if Bar(-1, 1, 10) != "" || Bar(1, 0, 10) != "" {
		t.Error("degenerate bars should be empty")
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("Geomean(2,8) = %f, want 4", g)
	}
	if g := Geomean([]float64{5, 0, -3}); math.Abs(g-5) > 1e-9 {
		t.Errorf("non-positive entries must be skipped: %f", g)
	}
	if Geomean(nil) != 0 {
		t.Error("empty geomean should be 0")
	}
	// Log-sum formulation survives values that would overflow a product.
	big := make([]float64, 100)
	for i := range big {
		big[i] = 1e300
	}
	if g := Geomean(big); math.IsInf(g, 0) || math.Abs(g-1e300)/1e300 > 1e-9 {
		t.Errorf("Geomean overflowed: %g", g)
	}
}
