package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/offrt"
	"repro/internal/workloads"
)

// testSizes shrinks every cell so the whole suite fits a tier-1 run under
// the race detector: one program, one round, small fleets. The tiered cell
// keeps its client count and topology (the fault plan names servers by
// index) and cuts requests per client instead.
var testSizes = sizes{
	paperPrograms:   []string{"177.mesa"},
	shortPrograms:   []string{"464.h264ref"},
	churnRounds:     1,
	overloadClients: 2000,
	tieredClients:   64,
	tieredRequests:  20,
	calibEvents:     2_500,
	calibInstrs:     160_000,
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func runTest(t *testing.T, spec *benchSpec, workload string, seed uint64, trace bool, s sizes) *runResult {
	t.Helper()
	res, err := runWorkload(spec, &options{workload: workload, seed: seed, passes: 1,
		trace: trace, outDir: t.TempDir(), sizes: s})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", workload, seed, res.Failed, res.Attempted, res.Failures)
	}
	return res
}

// TestSmokeAndSchema: every workload emits exactly the metrics
// BENCHMARK.json lists for the kind of run, with their units; the same seed
// repeats every simulated value and another seed moves the fleet's tail.
func TestSmokeAndSchema(t *testing.T) {
	spec := loadTestSpec(t)
	if spec.Paths[0] != "bench" || spec.Command[len(spec.Command)-1] != "bench/run.sh" {
		t.Errorf("command %v / paths %v do not name this directory", spec.Command, spec.Paths)
	}
	for _, w := range spec.workloadNames() {
		for _, trace := range []bool{false, true} {
			res := runTest(t, spec, w, 1, trace, testSizes)
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s: got %+v (present %v), want unit %s", w, trace, m.Name, got, ok, m.Unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w, m.Name)
				}
			}
			if trace {
				continue
			}
			again := runTest(t, spec, w, 1, false, testSizes)
			if !reflect.DeepEqual(res.Sim, again.Sim) {
				t.Errorf("%s: same seed, different simulated values: %s", w, simDiff(res.Sim, again.Sim))
			}
			if _, isFleet := res.Sim["fleet.sim_p99_ms"]; isFleet {
				other := runTest(t, spec, w, 2, false, testSizes)
				if other.Sim["fleet.sim_p99_ms"] == res.Sim["fleet.sim_p99_ms"] {
					t.Errorf("%s: seed 2 left fleet.sim_p99_ms at %v", w, res.Sim["fleet.sim_p99_ms"])
				}
			}
		}
	}
}

// TestSpecLimits: the validator refuses what the acceptance driver refuses.
func TestSpecLimits(t *testing.T) {
	for name, breakIt := range map[string]func(*benchSpec){
		"bad name":         func(s *benchSpec) { s.PerLayer[0].Name = "no spaces" },
		"duplicate name":   func(s *benchSpec) { s.PerLayer[1].Name = s.EndToEnd[1].Name },
		"one workload":     func(s *benchSpec) { s.Workloads = s.Workloads[:1] },
		"bound too wide":   func(s *benchSpec) { s.EndToEnd[1].Bound = 0.3 },
		"no setup_s":       func(s *benchSpec) { s.EndToEnd[0].Name = "startup_s" },
		"bad direction":    func(s *benchSpec) { s.PerLayer[0].Better = "faster" },
		"long unit":        func(s *benchSpec) { s.PerLayer[0].Unit = "seconds_per_evaluation" },
		"17 end-to-end":    func(s *benchSpec) { s.EndToEnd = append(s.EndToEnd, make([]metricSpec, 11)...) },
		"run_seconds 0":    func(s *benchSpec) { s.RunSeconds = 0 },
		"why of 201 runes": func(s *benchSpec) { s.Workloads[0].Why = string(make([]byte, 201)) },
	} {
		spec := loadTestSpec(t)
		breakIt(spec)
		if spec.validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestChecksAreNotVacuous feeds each outside-in check a deliberately wrong
// value and requires the op to count as failed.
func TestChecksAreNotVacuous(t *testing.T) {
	local := &core.LocalResult{Code: 0, Output: "checksum 8675309\n"}
	same := &core.OffloadResult{Code: 0, Output: local.Output, MemDigest: 0xfeed}
	offloaded := &core.OffloadResult{PerTask: map[int]*offrt.TaskStats{1: {Offloads: 1}}}
	declined := &core.OffloadResult{}
	gzip := workloads.ByName("164.gzip")
	if gzip == nil || !gzip.Paper.StarredSlow {
		t.Fatal("164.gzip is no longer the starred program")
	}

	cfg := overloadConfig(testSizes, 1)
	seq, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqJSON, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	oneByteOff := append([]byte(nil), seqJSON...)
	oneByteOff[len(oneByteOff)/2] ^= 1
	miscounted := *seq
	miscounted.Requests++
	leaked := *seq
	leaked.Sheds--

	for name, c := range map[string]struct{ good, bad error }{
		"mutated output": {checkOffload("fast", local, same),
			checkOffload("fast", local, &core.OffloadResult{Output: "checksum 8675308\n"})},
		"wrong exit code": {nil, checkOffload("fast", local, &core.OffloadResult{Code: 1, Output: local.Output})},
		"slow link declined an unstarred program": {checkGate(gzip, offloaded, declined),
			checkGate(workloads.ByName("177.mesa"), offloaded, declined)},
		"fast link declined":        {nil, checkGate(gzip, declined, declined)},
		"faulted digest":            {checkDigest(same.MemDigest, 0xfeed), checkDigest(same.MemDigest, 0xfeee)},
		"off-by-one request count":  {checkAccounting(cfg, seq), checkAccounting(cfg, &miscounted)},
		"request that ended no way": {nil, checkAccounting(cfg, &leaked)},
		"one differing byte":        {checkParity(seqJSON, seqJSON), checkParity(seqJSON, oneByteOff)},
	} {
		e := &env{opts: &options{workload: "test"}}
		e.done(name, c.good)
		if e.failed != 0 {
			t.Errorf("%s: the right value failed the check: %v", name, c.good)
		}
		e.done(name, c.bad)
		if e.failed != 1 || e.attempted != 2 {
			t.Errorf("%s: the wrong value passed the check", name)
		}
	}
}

// TestWorkloadsExerciseTheirPaths: the mechanisms each workload was chosen
// for actually fire, so none can silently stop covering its path.
func TestWorkloadsExerciseTheirPaths(t *testing.T) {
	spec := loadTestSpec(t)
	s := testSizes
	s.tieredClients, s.tieredRequests = fullSizes.tieredClients, 40
	tiered, err := fleet.Run(tieredChaosConfig(s, 1))
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"migrations": tiered.Migrations, "retried": tiered.Retried,
		"demotions": tiered.Demotions, "sheds": tiered.Sheds} {
		if n <= 0 {
			t.Errorf("fleet_tiered_chaos: %s = %d, want > 0", name, n)
		}
	}
	churn := runTest(t, spec, "session_churn", 1, false, testSizes)
	if churn.Sim["offrt.retries"] <= 0 || churn.Sim["faults.injected"] <= 0 {
		t.Errorf("session_churn: retries %v, injected %v, want both > 0",
			churn.Sim["offrt.retries"], churn.Sim["faults.injected"])
	}
}

// TestCompareVerdicts pins the regression rule on hand-made samples.
func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "sim_speedup_x", Better: "higher", Bound: 0.03}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00, 1.00, 1.01, 0.99}
	scale := func(vs []float64, k float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * k
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"5% slower, inside the bound", lower, steady, scale(steady, 1.05), "ok"},
		{"20% slower", lower, steady, scale(steady, 1.20), "regressed"},
		{"20% faster", lower, steady, scale(steady, 0.80), "ok"},
		{"spread wider than the bound", lower, noisy, noisy, "unresolved"},
		{"noisy, but every run better", lower, noisy, scale(noisy, 0.3), "ok"},
		{"speedup fell 5%", higher, steady, scale(steady, 0.95), "regressed"},
		{"speedup rose", higher, steady, scale(steady, 1.5), "ok"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// The quartiles are Python's statistics.quantiles(v, n=4).
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCalibration: a host that takes the nominal time has speed 1, a host
// twice as slow has speed 1/2, and the calibrator does real work.
func TestCalibration(t *testing.T) {
	if s := hostSpeed(calibNominalS, calibNominalS); s != 1 {
		t.Errorf("nominal host has speed %v, want 1", s)
	}
	if s := hostSpeed(2*calibNominalS, 2*calibNominalS); s != 0.5 {
		t.Errorf("host twice as slow has speed %v, want 0.5", s)
	}
	if d := newCalibrator(testSizes).sample(); d <= 0 {
		t.Errorf("calibration took %v s", d)
	}
}
