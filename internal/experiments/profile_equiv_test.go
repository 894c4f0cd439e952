package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/goldentest"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// profileProgram profiles one of the differential programs the shipped way
// (core.Framework.Profile, private compilation cache) on the given engine.
func profileProgram(t *testing.T, p equivProgram, configure func(fw *core.Framework)) *profile.Report {
	t.Helper()
	fw := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, p.costScale)
	fw.Cache = nil
	if configure != nil {
		configure(fw)
	}
	rep, err := fw.Profile(p.mod, p.io())
	if err != nil {
		t.Fatalf("%s: profile: %v", p.name, err)
	}
	return rep
}

// renderReport prints the complete report: Total, then every field of every
// candidate's Stats in Report.Sorted() order, in raw picoseconds.
func renderReport(buf *bytes.Buffer, name string, rep *profile.Report) {
	fmt.Fprintf(buf, "== %s total=%d candidates=%d\n", name, int64(rep.Total), len(rep.ByName))
	for _, s := range rep.Sorted() {
		kind := "func"
		if s.Candidate.Kind == profile.KindLoop {
			kind = "loop"
		}
		fmt.Fprintf(buf, "%s %s display=%s time=%d self=%d inv=%d pages=%d mem=%d\n",
			kind, s.Candidate.Name(), s.Candidate.Display(),
			int64(s.Time), int64(s.SelfTime), s.Invocations, s.Pages, s.MemBytes)
	}
}

// TestProfileReportsGolden pins the complete hot function/loop report of
// chess and all 17 Table 4 programs on their profiling inputs. The engine
// differential cannot see a change to the profiler's own accounting (both
// engines drive the same profiler); this golden can. Regenerate with `make
// golden` only for an intended change to what the profiler measures.
func TestProfileReportsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, p := range equivPrograms() {
		renderReport(&buf, p.name, profileProgram(t, p, nil))
	}
	goldentest.Check(t, "profile_reports.golden", buf.Bytes())
}
