package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how often a run repeats its set-up; setup_s is the median,
// which keeps one slow page-in from reading as a set-up regression.
const setupReps = 3

// minPasses is how many passes a timed run measures however short -seconds
// is: a median of fewer says little.
const minPasses = 3

// options selects and sizes one run of one workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64 // measure for this long ...
	passes   int     // ... or, when > 0, for exactly this many passes
	trace    bool
	outDir   string
	sizes    sizes
}

// env is the harness as a workload sees it: the span recorder of the
// current pass (nil when untraced), the op ledger, and the exact
// simulated values the latest pass produced.
type env struct {
	opts      *options
	rec       *recorder
	attempted int
	failed    int
	failures  []string
	sim       map[string]float64
}

// done closes one op; a non-nil err is why it failed. The first few
// reasons are kept for the result record.
func (e *env) done(op string, err error) {
	e.attempted++
	if err == nil {
		return
	}
	e.failed++
	if len(e.failures) < 10 {
		e.failures = append(e.failures, fmt.Sprintf("%s: %v", op, err))
	}
}

// workload is one set of inputs. Everything it does to the system goes
// through the packages' public functions, from one goroutine.
type workload interface {
	// setup builds the inputs from the seed and brings caches to the state
	// the workload is defined on. The harness calls it setupReps times and
	// measures on the state the last call left.
	setup(e *env) error
	// pass runs the workload once: it reports every op through e.done and
	// leaves the pass's exact simulated values in e.sim.
	pass(e *env)
	// layers turns the traced passes' span times into the per-layer host
	// metrics and runs the probes that only a traced run pays for.
	layers(e *env, self, dur spanTimes, passes int, m map[string]float64)
	// procs is the GOMAXPROCS the workload is measured at.
	procs() int
}

func newWorkload(o *options) (workload, error) {
	switch o.workload {
	case "paper_sweep":
		return &paperSweep{}, nil
	case "session_churn":
		return &sessionChurn{}, nil
	case "fleet_overload":
		return &fleetCell{}, nil
	case "fleet_tiered_chaos":
		return &fleetCell{tiered: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the contract's four keys plus the
// raw samples the result record keeps.
type runResult struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	Passes     int    `json:"passes"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// WallS and SetupS are in seconds of the nominal host (see calib.go):
	// the raw stopwatch times beside them, multiplied by the host's speed
	// while each was taken.
	WallS       []float64 `json:"wall_s_samples"`
	RawWallS    []float64 `json:"raw_wall_s_samples"`
	HostSpeed   []float64 `json:"host_speed_samples"`
	TracedWallS []float64 `json:"traced_raw_wall_s_samples,omitempty"`
	SetupS      []float64 `json:"setup_s_samples"`
	RawSetupS   []float64 `json:"raw_setup_s_samples"`
	Correct     bool      `json:"correct"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Failures    []string  `json:"failures,omitempty"`
	// Sim holds the pass's exact simulated values: they repeat bit for bit
	// for a fixed seed, whatever the host and however many passes ran.
	Sim     map[string]float64     `json:"sim"`
	Metrics map[string]metricValue `json:"metrics"`
}

func timedPass(w workload, e *env, rec *recorder) float64 {
	e.rec = rec
	e.sim = map[string]float64{}
	rec.begin("bench.pass")
	t0 := time.Now()
	w.pass(e)
	d := time.Since(t0).Seconds()
	rec.end()
	e.rec = nil
	return d
}

// runWorkload sets the workload up, measures it and returns the metrics
// BENCHMARK.json lists for this kind of run: the end-to-end ones from an
// untraced run, the per-layer ones from a traced run.
func runWorkload(spec *benchSpec, o *options) (*runResult, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs()))
	e := &env{opts: o}
	res := &runResult{Workload: o.workload, Seed: o.seed, Trace: o.trace, GoMaxProcs: w.procs()}

	// Every timed section sits between two calibrations; the later one of a
	// section is the earlier one of the next.
	cal := newCalibrator(o.sizes)
	calBefore := cal.sample()
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		raw := time.Since(t0).Seconds()
		calAfter := cal.sample()
		res.RawSetupS = append(res.RawSetupS, raw)
		res.SetupS = append(res.SetupS, raw*hostSpeed(calBefore, calAfter))
		calBefore = calAfter
	}

	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	// Allocation is counted around the passes only: the calibration
	// allocates too.
	var ms runtime.MemStats
	var allocated uint64
	var firstSim map[string]float64
	var drift error
	start := time.Now()
	longest := 0.0
	for n := 0; ; n++ {
		if o.passes > 0 && n >= o.passes {
			break
		}
		// Stop before the pass that would overrun -seconds, so a run's
		// length does not depend on where its last pass happened to start.
		if o.passes <= 0 && n >= minPasses && time.Since(start).Seconds()+longest > o.seconds {
			break
		}
		t0 := time.Now()
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		// A traced run alternates untraced and traced passes, so the two
		// wall-clock samples it compares saw the same machine state.
		raw := timedPass(w, e, nil)
		if rec != nil {
			res.TracedWallS = append(res.TracedWallS, timedPass(w, e, rec))
		}
		runtime.ReadMemStats(&ms)
		allocated += ms.TotalAlloc - a0
		calAfter := cal.sample()
		speed := hostSpeed(calBefore, calAfter)
		calBefore = calAfter
		res.RawWallS = append(res.RawWallS, raw)
		res.HostSpeed = append(res.HostSpeed, speed)
		res.WallS = append(res.WallS, raw*speed)
		longest = max(longest, time.Since(t0).Seconds())
		if firstSim == nil {
			firstSim = e.sim
		} else if d := simDiff(firstSim, e.sim); d != "" && drift == nil {
			drift = fmt.Errorf("simulated values moved between passes of one run: %s", d)
		}
	}
	e.done("repeatability", drift)
	res.Passes = len(res.WallS)

	all := map[string]float64{}
	for k, v := range firstSim {
		all[k] = v
	}
	nPasses := float64(len(res.WallS) + len(res.TracedWallS))
	all["setup_s"] = median(res.SetupS)
	all["wall_s"] = median(res.WallS)
	all["alloc_mb"] = float64(allocated) / nPasses / (1 << 20)
	all["peak_rss_mb"] = peakRSSMB()
	if rec != nil {
		self, dur := rec.selfTimes()
		w.layers(e, self, dur, len(res.TracedWallS), all)
		all["bench.passes"] = float64(res.Passes)
		all["bench.wall_iqr_frac"] = iqrFrac(res.WallS)
		all["bench.trace_overhead_frac"] = median(res.TracedWallS)/median(res.RawWallS) - 1
		all["bench.raw_wall_s"] = median(res.RawWallS)
		all["bench.host_speed_x"] = median(res.HostSpeed)
		all["bench.cores"] = float64(runtime.NumCPU())
		all["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		if err := rec.write(filepath.Join(o.outDir, "trace-"+o.workload+".json")); err != nil {
			return nil, err
		}
	}
	// ok_frac stands in for a failed fraction: an end-to-end metric may
	// never read 0, and the failed fraction of a healthy run always does.
	all["ok_frac"] = float64(e.attempted-e.failed) / float64(e.attempted)

	res.Attempted, res.Failed, res.Failures, res.Sim = e.attempted, e.failed, e.failures, firstSim
	res.Correct = e.failed == 0
	res.Metrics, err = pick(spec, o.trace, all)
	return res, err
}

// pick selects the metrics this kind of run reports, with their units. A
// computed value BENCHMARK.json does not name is a typo here or there. A
// per-layer metric the workload left unset is reported as 0: that layer
// did no work in this workload. An end-to-end metric must exist.
func pick(spec *benchSpec, trace bool, all map[string]float64) (map[string]metricValue, error) {
	known := map[string]bool{}
	for _, m := range spec.EndToEnd {
		known[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		known[m.Name] = true
	}
	for k := range all {
		if !known[k] {
			return nil, fmt.Errorf("computed metric %q is not in BENCHMARK.json", k)
		}
	}
	out := map[string]metricValue{}
	if trace {
		for _, m := range spec.PerLayer {
			out[m.Name] = metricValue{all[m.Name], m.Unit}
		}
		return out, nil
	}
	for _, m := range spec.EndToEnd {
		v, ok := all[m.Name]
		if !ok || v == 0 {
			return nil, fmt.Errorf("end-to-end metric %q has no value", m.Name)
		}
		out[m.Name] = metricValue{v, m.Unit}
	}
	return out, nil
}

// simDiff names the first simulated value that differs between two passes.
func simDiff(a, b map[string]float64) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if bv, ok := b[k]; !ok || bv != a[k] {
			return fmt.Sprintf("%s %v -> %v", k, a[k], bv)
		}
	}
	if len(b) != len(a) {
		return "different set of values"
	}
	return ""
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM). Each
// workload runs in a process of its own, so the peak is that workload's.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// printRun writes the human-readable table: every metric as
// `workload metric value unit`, in BENCHMARK.json's order.
func printRun(spec *benchSpec, r *runResult) {
	list := spec.EndToEnd
	if r.Trace {
		list = spec.PerLayer
	}
	for _, m := range list {
		v := r.Metrics[m.Name]
		note := ""
		switch {
		case m.Name == "wall_s":
			q1, _, q3 := quartiles(r.WallS)
			note = fmt.Sprintf("  (median of %d passes, quartiles %.4g / %.4g; stopwatch median %.4g s at host speed %.3f",
				len(r.WallS), q1, q3, median(r.RawWallS), median(r.HostSpeed))
			if len(r.WallS) <= 12 {
				note += "; too few passes for a higher percentile with ten samples beyond it"
			}
			note += ")"
		case m.Name == "ok_frac":
			note = fmt.Sprintf("  (%d failed of %d ops)", r.Failed, r.Attempted)
		case m.Name == "fleet.par_host_s" && runtime.GOMAXPROCS(0) == 1:
			note = "  (par unarmed: gomaxprocs=1)"
		}
		fmt.Printf("%s %s %s %s%s\n", r.Workload, m.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit, note)
	}
}
