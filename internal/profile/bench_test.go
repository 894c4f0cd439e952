package profile

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// BenchmarkProfileRun is what profiling costs the host: one iteration runs
// the 17 Table 4 programs on their profiling inputs, plain (the uninstrumented
// program, nothing attached) or profiled (what core.Framework.Profile does:
// the instrumented program under Run). Same programs, same inputs, same guest
// steps — the ratio of the two rows is the profiler's overhead. Inputs are
// built off the clock.
func BenchmarkProfileRun(b *testing.B) {
	spec := arch.ARM32()
	type cell struct {
		w           *workloads.Workload
		plain, inst *interp.Program
	}
	var cells []cell
	for _, w := range workloads.All() {
		work := w.Build().Clone("profile:" + w.Name)
		ir.Lower(work, spec, spec)
		compile := func(instrument bool) *interp.Program {
			prog, err := interp.Compile(work, interp.CompileConfig{
				Name: "profiler", Spec: spec, InitUVAGlobals: true, Instrument: instrument}, nil)
			if err != nil {
				b.Fatal(err)
			}
			return prog
		}
		cells = append(cells, cell{w, compile(false), compile(true)})
	}
	run := func(b *testing.B, profiled bool) {
		var steps int64
		for i := 0; i < b.N; i++ {
			for _, c := range cells {
				b.StopTimer()
				io := c.w.ProfileIO()
				b.StartTimer()
				prog := c.plain
				if profiled {
					prog = c.inst
				}
				m := prog.NewInstance(interp.WithIO(io), interp.WithCostScale(c.w.CostScale))
				var err error
				if profiled {
					_, err = Run(m)
				} else {
					_, err = m.RunMain()
				}
				if err != nil {
					b.Fatal(err)
				}
				steps += m.Steps
			}
		}
		b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
	}
	b.Run("plain", func(b *testing.B) { run(b, false) })
	b.Run("profiled", func(b *testing.B) { run(b, true) })
}
