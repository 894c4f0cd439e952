// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5): one sub-benchmark per Paper entry of the experiments
// catalogue. Each reports the headline quantities of its artifact as
// custom metrics, and a -v run prints the full rendered table, so
//
//	go test -bench=. -benchmem
//
// is the one-command reproduction of the paper.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
)

func BenchmarkPaper(b *testing.B) {
	p := experiments.DefaultParams()
	for _, e := range experiments.Catalogue {
		if !e.Paper {
			continue
		}
		// The artifact is logged a single time regardless of how often the
		// harness re-enters the sub-benchmark to settle b.N.
		logged := false
		b.Run(e.Name, func(b *testing.B) {
			var a *experiments.Artifact
			for i := 0; i < b.N; i++ {
				var err error
				if a, err = e.Run(p); err != nil {
					b.Fatal(err)
				}
			}
			if !logged {
				b.Log("\n" + a.Text)
				logged = true
			}
			for _, m := range a.Metrics {
				b.ReportMetric(m.Value, m.Name)
			}
		})
	}
}
