package core

import (
	"os"
	"testing"

	"repro/internal/arch"
	"repro/internal/estimate"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/offrt"
)

// TestHandWrittenIRProgram runs the shipped matmul.ir through the whole
// toolchain: parse -> profile -> compile -> offload, with output checked
// against local execution. This is the downstream-user path (offloadc -ir /
// offloadrun -ir).
func TestHandWrittenIRProgram(t *testing.T) {
	data, err := os.ReadFile("../../examples/irprogram/matmul.ir")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ir.Parse(string(data))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mkIO := func() *interp.StdIO {
		io := interp.NewStdIO([]int64{120})
		io.MaxBuffered = 1 << 20
		return io
	}
	fw := NewFramework(FastNetwork)
	fw.CostScale = 2000

	prof, err := fw.Profile(mod, mkIO())
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	cres, err := fw.Compile(mod, prof)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var names []string
	for _, tg := range cres.Targets {
		names = append(names, tg.Name)
	}
	if len(names) == 0 || names[0] != "multiply" {
		t.Fatalf("targets = %v, want multiply first", names)
	}

	local, err := fw.RunLocal(mod, mkIO())
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	off, err := fw.RunOffloaded(cres, mkIO(), offrt.Policy{})
	if err != nil {
		t.Fatalf("offload: %v", err)
	}
	if off.Output != local.Output {
		t.Errorf("outputs differ:\nlocal: %q\noffload: %q", local.Output, off.Output)
	}
	if !off.Offloaded() {
		t.Error("matmul should offload")
	}
	if off.Speedup(local) < 3 {
		t.Errorf("speedup = %.2f, want > 3", off.Speedup(local))
	}
}

// TestOneRPerPair: the compiler selects targets and the session's gate
// prices them with one R for the pair, arch.PerformanceRatio's. For each
// server against the ARM32 mobile, every candidate's ideal gain is
// Tm*(1-1/R) at that R, and every gate event traces the same R (A3 is
// R*1000).
func TestOneRPerPair(t *testing.T) {
	data, err := os.ReadFile("../../examples/irprogram/matmul.ir")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ir.Parse(string(data))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mkIO := func() *interp.StdIO { return interp.NewStdIO([]int64{120}) }
	for _, server := range []*arch.Spec{arch.X8664(), arch.IA32(), arch.POWER32BE()} {
		fw := NewFramework(FastNetwork)
		fw.CostScale = 2000
		fw.Server = server
		r := arch.PerformanceRatio(fw.Mobile, server)
		prof, err := fw.Profile(mod, mkIO())
		if err != nil {
			t.Fatalf("%s: profile: %v", server.Name, err)
		}
		cres, err := fw.Compile(mod, prof)
		if err != nil {
			t.Fatalf("%s: compile: %v", server.Name, err)
		}
		for _, c := range cres.Candidates {
			if want := (estimate.Params{R: r}).IdealGain(c.Time); !c.Machine && c.Est.Tideal != want {
				t.Errorf("%s: compiler priced %s's ideal gain %v, want %v at R %.4f", server.Name, c.Name, c.Est.Tideal, want, r)
			}
		}
		fw.Tracer = obs.NewTracer(0)
		if _, err := fw.RunOffloaded(cres, mkIO(), offrt.Policy{}); err != nil {
			t.Fatalf("%s: offload: %v", server.Name, err)
		}
		gates := 0
		for _, ev := range fw.Tracer.Events() {
			if ev.Kind != obs.KGate {
				continue
			}
			gates++
			if want := int64(r * 1000); ev.A3 != want {
				t.Errorf("%s: gate %q traced R*1000 = %d, compiler and arch.PerformanceRatio %d", server.Name, ev.Name, ev.A3, want)
			}
		}
		if gates == 0 {
			t.Errorf("%s: no gate decision traced", server.Name)
		}
	}
}
