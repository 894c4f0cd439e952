package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readRecord(path string) (*record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one end-to-end metric of one workload over a record's
// untraced runs.
func (r *record) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload == workload && !run.Trace {
			if v, ok := run.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// verdict applies the regression rule to one (workload, metric) pair: B
// regressed when its median is worse than A's by more than the bound;
// where either side's own spread is wider than the bound the pair is
// unresolved, unless every run of B reads better than every run of A.
func verdict(m metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	if max(iqrFrac(a), iqrFrac(b)) > m.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if (m.Better == "lower" && y >= x) || (m.Better == "higher" && y <= x) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
		return "ok"
	}
	if worse > m.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files, A the base, and reports whether anything regressed.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readRecord(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tunit\tB/A (base A)\tA spread\tB spread\tbound\tn\tverdict")
	regressed := false
	for _, wl := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl, m.Name), b.values(wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: missing from one of the files", wl, m.Name)
			}
			v := verdict(m, va, vb)
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.4f\t%.2f%%\t%.2f%%\t%.1f%%\t%d/%d\t%s\n",
				wl, m.Name, median(va), median(vb), m.Unit, median(vb)/median(va),
				100*iqrFrac(va), 100*iqrFrac(vb), 100*m.Bound, len(va), len(vb), v)
		}
	}
	return regressed, tw.Flush()
}
