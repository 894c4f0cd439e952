package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/goldentest"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// profileProgram profiles one of the differential programs the shipped way:
// core.Framework.Profile (private compilation cache).
func profileProgram(t *testing.T, p equivProgram) *profile.Report {
	t.Helper()
	fw := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, p.costScale)
	fw.Cache = nil
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
	t.Parallel()
	var buf bytes.Buffer
	for _, p := range equivPrograms() {
		renderReport(&buf, p.name, profileProgram(t, p))
	}
	goldentest.Check(t, "profile_reports.golden", buf.Bytes())
}

// TestProfileEngineEquivalenceAllWorkloads is the profiling leg of
// TestEngineEquivalenceAllWorkloads: for every workload and chess, the
// profiler attached to a fast-engine instance of the instrumented program and
// to a reference-engine instance of the same program must produce deeply
// equal reports — every time, count and page set of every candidate.
func TestProfileEngineEquivalenceAllWorkloads(t *testing.T) {
	t.Parallel()
	for _, p := range equivPrograms() {
		t.Run(p.name, func(t *testing.T) {
			work := p.mod.Clone(p.mod.Name)
			spec := arch.ARM32()
			ir.Lower(work, spec, spec)
			prog, err := interp.Compile(work, interp.CompileConfig{
				Name: "equiv", Spec: spec, InitUVAGlobals: true, Instrument: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			run := func(eng interp.Engine) *profile.Report {
				rep, err := profile.Run(prog.NewInstance(
					interp.WithIO(p.io()), interp.WithCostScale(p.costScale), interp.WithEngine(eng)))
				if err != nil {
					t.Fatalf("%v engine: %v", eng, err)
				}
				return rep
			}
			if fast, ref := run(interp.EngineFast), run(interp.EngineRef); !reflect.DeepEqual(fast, ref) {
				t.Errorf("reports differ:\nfast:\n%v\nref:\n%v", fast, ref)
			}
		})
	}
}
