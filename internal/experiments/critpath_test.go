package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// TestCritPathMatchesSessionStats is the per-job refinement of the
// Breakdown acceptance bar: replaying a real session trace through the
// critical-path analyzer must hand every offload job a complete span tree
// whose causally-ordered segments sum *bit-exactly* to its latency, and
// the job totals together must reproduce SessionStats.E2ELatency — the
// analyzer explains every picosecond the runtime accounted, one job at a
// time.
func TestCritPathMatchesSessionStats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an offloaded execution")
	}
	tracer := obs.NewTracer(1 << 20)
	w := workloads.ByName("433.milc")
	r, err := RunProgram(w, func(fw *core.Framework) { fw.Tracer = tracer })
	if err != nil {
		t.Fatal(err)
	}
	if d := tracer.Dropped(); d != 0 {
		t.Fatalf("trace truncated: %d events dropped — grow the test tracer", d)
	}

	cs := analyze.Crit(tracer.Events())
	if len(cs.Jobs) == 0 {
		t.Fatal("no jobs assembled from the session trace")
	}
	var total simtime.PS
	offloads := 0
	for _, cp := range cs.Jobs {
		if cp.Total == 0 {
			continue // a declined job retains only its verdict instant
		}
		offloads++
		if !cp.Complete {
			t.Errorf("job %d: incomplete span tree on an undropped trace", cp.Job)
		}
		if got := cp.SegSum(); got != cp.Total {
			t.Errorf("job %d: segments sum to %v, job total is %v", cp.Job, got, cp.Total)
		}
		for _, s := range cp.Segments {
			if s.Dur < 0 {
				t.Errorf("job %d: negative segment %s = %v", cp.Job, s.Name, s.Dur)
			}
		}
		total += cp.Total
	}
	if offloads == 0 {
		t.Fatal("no offload jobs decomposed: the identity is vacuous")
	}
	if want := r.Fast.Stats.E2ELatency; total != want {
		t.Errorf("per-job totals sum to %v, SessionStats.E2ELatency is %v", total, want)
	}
}
