package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/workloads"
)

// TestBreakdownMatchesSessionStats is the acceptance bar for the
// trace-analysis pipeline: on a fault-free Table-4 workload, replaying the
// trace must reconstruct exactly what the runtime accounted — per-offload
// totals summing to SessionStats.E2ELatency, components partitioning each
// total, the traced radio spans being the energy recorder's segments one for
// one, and the stack profiles' attributed time matching both machines' clocks.
func TestBreakdownMatchesSessionStats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an offloaded execution")
	}
	tracer := obs.NewTracer(1 << 20)
	w := workloads.ByName("433.milc")
	r, err := RunProgram(w, func(fw *core.Framework) {
		fw.Tracer = tracer
		fw.ProfileStacks = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := tracer.Dropped(); d != 0 {
		t.Fatalf("trace truncated: %d events dropped — grow the test tracer", d)
	}
	evs := tracer.Events()

	// Per-offload time breakdown vs the runtime's own accounting.
	sum := analyze.Breakdown(evs)
	if len(sum.Offloads) == 0 {
		t.Fatal("no offloads reconstructed from the trace")
	}
	if sum.Fallbacks != 0 {
		t.Fatalf("fault-free run reconstructed %d fallbacks", sum.Fallbacks)
	}
	if got, want := sum.Total(), r.Fast.Stats.E2ELatency; got != want {
		t.Errorf("breakdown total %v != SessionStats.E2ELatency %v", got, want)
	}
	for i, o := range sum.Offloads {
		if parts := o.Init + o.Compute + o.Fault + o.IO + o.WriteBack; parts != o.Total {
			t.Errorf("offload %d: components sum %v != total %v", i, parts, o.Total)
		}
		if o.Compute < 0 {
			t.Errorf("offload %d: negative compute remainder %v", i, o.Compute)
		}
	}

	// The radio timeline in the trace is the recorder's, segment for segment.
	var traced, recorded []string
	for _, ev := range evs {
		if ev.Kind == obs.KRadio {
			traced = append(traced, fmt.Sprintf("%s [%v, %v)", ev.Name, ev.Time, ev.Time+ev.Dur))
		}
	}
	for _, s := range r.Fast.Recorder.Segments() {
		recorded = append(recorded, fmt.Sprintf("%s [%v, %v)", s.State, s.Start, s.End))
	}
	if len(recorded) == 0 || !slices.Equal(traced, recorded) {
		t.Errorf("traced radio spans %v, recorder segments %v", traced, recorded)
	}

	// Guest profiles: every simulated picosecond attributed, both machines.
	if got, want := r.Fast.MobileProf.Total(), int64(r.Fast.Time); got != want {
		t.Errorf("mobile profile total %d != mobile clock %d", got, want)
	}
	if got, want := r.Fast.ServerProf.Total(), int64(r.Fast.ServerTime); got != want {
		t.Errorf("server profile total %d != server clock %d", got, want)
	}
	if r.Fast.MobileProf.Folded() == "" || r.Fast.ServerProf.Folded() == "" {
		t.Error("empty folded profile")
	}
	if !strings.Contains(r.Fast.ServerProf.Folded(), w.Paper.TargetName) {
		t.Errorf("server profile missing offload target %q:\n%s",
			w.Paper.TargetName, r.Fast.ServerProf.Folded())
	}

	// The rendered artifacts exist and carry the headline rows.
	if s := analyze.TimeTable(sum).String(); !strings.Contains(s, "total_ms") {
		t.Errorf("time table malformed:\n%s", s)
	}
	if s := analyze.RadioTable(r.Fast.Recorder, energy.FastModel()).String(); !strings.Contains(s, "energy_mj") {
		t.Errorf("radio table malformed:\n%s", s)
	}
	if s := ProfileTable(r.Fast.MobileProf, r.Fast.ServerProf, 15).String(); !strings.Contains(s, "server") {
		t.Errorf("profile table malformed:\n%s", s)
	}

	// The latency replay finds every population a fault-free offloading
	// run must have, one e2e value per reconstructed offload.
	lat := analyze.ReplayLatencies(evs)
	if len(lat.RPC) == 0 || len(lat.WriteBack) == 0 {
		t.Errorf("latency replay found %d RPCs and %d write-backs", len(lat.RPC), len(lat.WriteBack))
	}
	if got, want := len(lat.E2E), len(sum.Offloads); got != want {
		t.Errorf("replayed %d e2e latencies != reconstructed offloads %d", got, want)
	}
}

// TestProfileFaultsCompose runs the flag combination the old
// RunProgram* ladder had no rung for: link faults and the guest stack profile
// on one run. Recovery must still end with the local run's
// output, and the stack profiles must still attribute every picosecond of both
// clocks across the aborted offload and its local fallback.
func TestProfileFaultsCompose(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs an offloaded execution")
	}
	plan, err := faults.Parse("drop=0.2,outage=900ms-20s,seed=6")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunProgram(workloads.ByName("164.gzip"), func(fw *core.Framework) {
		fw.Faults = plan
		fw.ProfileStacks = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fast.Output != r.Local.Output {
		t.Error("faulted run's output differs from the local run")
	}
	if r.Fast.Stats.Fallbacks == 0 {
		t.Error("the outage forced no local fallback; the fault plan is vacuous")
	}
	if got, want := r.Fast.MobileProf.Total(), int64(r.Fast.Time); got != want {
		t.Errorf("mobile profile total %d != mobile clock %d", got, want)
	}
	if got, want := r.Fast.ServerProf.Total(), int64(r.Fast.ServerTime); got != want {
		t.Errorf("server profile total %d != server clock %d", got, want)
	}
}
