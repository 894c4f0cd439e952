package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simtime"
)

// The fleet-scale benchmark: how fast the discrete-event engine chews
// through a production-sized client population, whether the sharded
// engine is a pure wall-clock knob (bit-identical results), and whether
// adaptive admission earns its keep on a diurnal load curve.

// ScaleCell is one timed engine run.
type ScaleCell struct {
	Name         string  `json:"name"`
	Clients      int     `json:"clients"`
	Servers      int     `json:"servers"`
	Requests     int     `json:"requests_per_client"`
	Shards       int     `json:"shards"` // 0 = sequential reference engine
	Events       int64   `json:"events"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
	P99Ms        float64 `json:"p99_ms"`
	Sheds        int     `json:"sheds"`
}

// AdaptiveCell compares static against adaptive admission on one seed of
// the diurnal overload cell.
type AdaptiveCell struct {
	Seed           uint64  `json:"seed"`
	StaticSheds    int     `json:"static_sheds"`
	StaticMisses   int     `json:"static_deadline_misses"`
	StaticRPS      float64 `json:"static_rps"`
	AdaptiveSheds  int     `json:"adaptive_sheds"`
	AdaptiveMisses int     `json:"adaptive_deadline_misses"`
	AdaptiveRPS    float64 `json:"adaptive_rps"`
}

// ExemplarCell records the tail-sampled exemplar run: the 100k-client
// floor cell re-run with the sampler on and a bounded tracer ring
// attached, plus the structural facts CheckFloor enforces — the slowest-K
// jobs all retained, every retained exemplar assembling into a complete
// span tree whose critical-path segments sum exactly to its latency, and
// the whole flush staying inside the ring's existing memory bound.
type ExemplarCell struct {
	Exemplars     int   `json:"exemplars"`
	Clients       int   `json:"clients"`
	Retained      int   `json:"retained"`
	SlowRetained  int   `json:"slow_retained"`
	CompleteTrees int   `json:"complete_trees"`
	SumExact      int   `json:"sum_exact"`
	RingEvents    int   `json:"ring_events"`
	RingCap       int   `json:"ring_capacity"`
	TraceDropped  int64 `json:"trace_dropped"`
}

// ScaleBench is the machine-readable record make bench writes to
// BENCH_fleet_scale.json.
type ScaleBench struct {
	Cores      int    `json:"cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Parity     string `json:"parity"` // "ok" after the cross-engine byte-identity gate

	// Floor cells: the same 100k-client sweep through both engines.
	Seq      ScaleCell `json:"seq"`
	Par      ScaleCell `json:"par"`
	SpeedupX float64   `json:"speedup_x"` // parallel events/sec over sequential

	// Big is the headline run: a million clients over sixteen servers.
	Big ScaleCell `json:"big"`

	Adaptive []AdaptiveCell `json:"adaptive"`

	// Exemplar is the tail-sampling cell; nil (and absent from the JSON)
	// unless the sweep ran with exemplars > 0, so existing bench artifacts
	// stay byte-identical.
	Exemplar *ExemplarCell `json:"exemplar,omitempty"`
}

// scaleConfig is the shared workload of the timed cells: est-aware policy
// (the most expensive dispatcher — it prices every server per decision)
// over a 16-server heterogeneous pool.
func scaleConfig(clients, rpc, shards int) fleet.Config {
	cfg := fleet.DefaultConfig(clients, 16, fleet.EstAware)
	cfg.RequestsPerClient = rpc
	cfg.Shards = shards
	return cfg
}

func timeCell(name string, cfg fleet.Config) (ScaleCell, error) {
	t0 := time.Now()
	res, err := fleet.Run(cfg)
	if err != nil {
		return ScaleCell{}, fmt.Errorf("%s: %w", name, err)
	}
	el := time.Since(t0).Seconds()
	return ScaleCell{
		Name:         name,
		Clients:      cfg.Clients,
		Servers:      len(cfg.Servers),
		Requests:     cfg.RequestsPerClient,
		Shards:       cfg.Shards,
		Events:       res.Events,
		ElapsedSec:   el,
		EventsPerSec: float64(res.Events) / el,
		P99Ms:        res.P99Ms,
		Sheds:        res.Sheds,
	}, nil
}

// exemplarCell re-runs the floor workload with the tail sampler on and a
// default-capacity tracer ring attached, then scores the retained set:
// how many exemplars came back, how many carry the "slow" (slowest-K)
// category, how many assemble into complete span trees whose root
// duration matches the recorded latency, and on how many the
// critical-path segments sum exactly to the end-to-end latency.
func exemplarCell(clients, shards, k int) (*ExemplarCell, error) {
	cfg := scaleConfig(clients, 10, shards)
	cfg.Exemplars = k
	tr := obs.NewTracer(0)
	cfg.Tracer = tr
	res, err := fleet.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("exemplar cell: %w", err)
	}
	cell := &ExemplarCell{
		Exemplars: k, Clients: clients,
		Retained:   len(res.Exemplars),
		RingEvents: tr.Len(), RingCap: obs.DefaultCapacity,
		TraceDropped: res.TraceDropped,
	}
	trees := make(map[int64]*obs.JobTrace)
	for _, jt := range obs.AssembleSpans(tr.Events()) {
		trees[jt.Job] = jt
	}
	for _, ex := range res.Exemplars {
		for _, c := range ex.Categories {
			if c == "slow" {
				cell.SlowRetained++
				break
			}
		}
		var sum int64
		for _, s := range ex.Segments {
			sum += s.PS
		}
		if sum == ex.LatencyPS {
			cell.SumExact++
		}
		if jt := trees[ex.Job]; jt != nil && jt.Complete && int64(jt.Roots[0].Dur) == ex.LatencyPS {
			cell.CompleteTrees++
		}
	}
	return cell, nil
}

// ScaleSweep runs the full fleet-scale benchmark. clients sizes the
// headline cell (the floor cells are pinned at 100k so the speedup number
// is comparable across runs); shards is the worker count for the parallel
// cells, typically runtime.NumCPU(); exemplars > 0 adds the tail-sampling
// cell retaining that many jobs per category.
func ScaleSweep(clients, shards, exemplars int) (*ScaleBench, error) {
	if shards < 1 {
		shards = runtime.NumCPU()
	}
	b := &ScaleBench{Cores: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}

	// Parity gate: before timing anything, prove the engines agree byte
	// for byte on a cell small enough to run across several shard counts
	// and every policy.
	for _, pol := range fleet.Policies() {
		cfg := fleet.DefaultConfig(64, 4, pol)
		cfg.Seed = 9
		var ref []byte
		for _, s := range []int{0, 1, 4} {
			c := cfg
			c.Shards = s
			res, err := fleet.Run(c)
			if err != nil {
				return nil, fmt.Errorf("parity %s shards=%d: %w", pol, s, err)
			}
			bs, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			if s == 0 {
				ref = bs
			} else if string(bs) != string(ref) {
				return nil, fmt.Errorf("parity: %s shards=%d diverged from sequential", pol, s)
			}
		}
	}
	b.Parity = "ok"

	var err error
	if b.Seq, err = timeCell("floor-seq", scaleConfig(100_000, 10, 0)); err != nil {
		return nil, err
	}
	if b.Par, err = timeCell("floor-par", scaleConfig(100_000, 10, shards)); err != nil {
		return nil, err
	}
	b.SpeedupX = b.Par.EventsPerSec / b.Seq.EventsPerSec

	if exemplars > 0 {
		if b.Exemplar, err = exemplarCell(100_000, shards, exemplars); err != nil {
			return nil, err
		}
	}

	rpc := 3 // a million clients need fewer requests each to stay in budget
	if clients < 1 {
		clients = 1_000_000
	}
	if b.Big, err = timeCell("big", scaleConfig(clients, rpc, shards)); err != nil {
		return nil, err
	}

	for seed := uint64(1); seed <= 3; seed++ {
		run := func(adaptive bool) (*fleet.Result, error) {
			cfg := fleet.DefaultConfig(256, 4, fleet.EstAware)
			cfg.Seed = seed
			cfg.RequestsPerClient = 20
			cfg.Workload.DiurnalAmp = 0.8
			cfg.Workload.DiurnalPeriod = 4 * simtime.Second
			cfg.Shards = shards
			if adaptive {
				cfg.Adaptive = fleet.DefaultAdaptive()
			}
			return fleet.Run(cfg)
		}
		st, err := run(false)
		if err != nil {
			return nil, fmt.Errorf("adaptive cell seed=%d static: %w", seed, err)
		}
		ad, err := run(true)
		if err != nil {
			return nil, fmt.Errorf("adaptive cell seed=%d adaptive: %w", seed, err)
		}
		b.Adaptive = append(b.Adaptive, AdaptiveCell{
			Seed:           seed,
			StaticSheds:    st.Sheds,
			StaticMisses:   st.DeadlineMisses,
			StaticRPS:      st.ThroughputRPS,
			AdaptiveSheds:  ad.Sheds,
			AdaptiveMisses: ad.DeadlineMisses,
			AdaptiveRPS:    ad.ThroughputRPS,
		})
	}
	return b, nil
}

// CheckFloor enforces the benchmark's acceptance bar: the engines must
// have agreed byte for byte, adaptive admission must strictly reduce
// sheds + deadline misses on every diurnal seed without losing 5% of
// throughput, and — on machines with the cores to show it — the sharded
// engine must clear 4x the sequential engine's events/sec.
func (b *ScaleBench) CheckFloor() error {
	if b.Parity != "ok" {
		return fmt.Errorf("fleetscale: parity gate did not run")
	}
	for _, c := range b.Adaptive {
		static, adaptive := c.StaticSheds+c.StaticMisses, c.AdaptiveSheds+c.AdaptiveMisses
		if static == 0 {
			return fmt.Errorf("fleetscale: seed %d felt no static pressure; the adaptive cell is vacuous", c.Seed)
		}
		if adaptive >= static {
			return fmt.Errorf("fleetscale: seed %d adaptive pain %d (sheds+misses) not below static %d",
				c.Seed, adaptive, static)
		}
		if c.AdaptiveRPS < 0.95*c.StaticRPS {
			return fmt.Errorf("fleetscale: seed %d adaptive throughput %.1f rps gave up >5%% vs static %.1f",
				c.Seed, c.AdaptiveRPS, c.StaticRPS)
		}
	}
	if b.Cores >= 4 && b.SpeedupX < 4 {
		return fmt.Errorf("fleetscale: %.2fx parallel speedup under the 4x floor on %d cores",
			b.SpeedupX, b.Cores)
	}
	if b.Cores < 4 && b.SpeedupX < 0.8 {
		// Even without cores to scale on, the sharded engine's smaller
		// heaps must not cost real throughput.
		return fmt.Errorf("fleetscale: parallel engine at %.2fx sequential on %d core(s); overhead out of bounds",
			b.SpeedupX, b.Cores)
	}
	if c := b.Exemplar; c != nil {
		if c.SlowRetained != c.Exemplars {
			return fmt.Errorf("fleetscale: exemplar cell retained %d slowest jobs, want all %d",
				c.SlowRetained, c.Exemplars)
		}
		if c.CompleteTrees != c.Retained {
			return fmt.Errorf("fleetscale: only %d of %d retained exemplars assembled complete span trees",
				c.CompleteTrees, c.Retained)
		}
		if c.SumExact != c.Retained {
			return fmt.Errorf("fleetscale: critical-path sum identity failed on %d of %d exemplars",
				c.Retained-c.SumExact, c.Retained)
		}
		if c.RingEvents > c.RingCap {
			return fmt.Errorf("fleetscale: exemplar flush overflowed the trace ring (%d events > cap %d)",
				c.RingEvents, c.RingCap)
		}
	}
	return nil
}

// Table renders the benchmark for the terminal.
func (b *ScaleBench) Table() *report.Table {
	t := report.New(fmt.Sprintf("Fleet scale: engine throughput on %d core(s), parity %s", b.Cores, b.Parity),
		"cell", "clients", "servers", "shards", "events", "elapsed (s)", "events/sec")
	for _, c := range []ScaleCell{b.Seq, b.Par, b.Big} {
		t.Add(c.Name, c.Clients, c.Servers, c.Shards, c.Events, c.ElapsedSec, c.EventsPerSec)
	}
	t.Note(fmt.Sprintf("parallel vs sequential events/sec: %.2fx (floor 4x arms at >= 4 cores)", b.SpeedupX))
	for _, c := range b.Adaptive {
		t.Note(fmt.Sprintf("diurnal seed %d: static sheds+misses %d -> adaptive %d (rps %.1f -> %.1f)",
			c.Seed, c.StaticSheds+c.StaticMisses, c.AdaptiveSheds+c.AdaptiveMisses, c.StaticRPS, c.AdaptiveRPS))
	}
	if c := b.Exemplar; c != nil {
		t.Note(fmt.Sprintf("exemplars: %d retained over %d clients (%d/%d slowest, %d complete trees, %d exact sums) in %d/%d ring events",
			c.Retained, c.Clients, c.SlowRetained, c.Exemplars, c.CompleteTrees, c.SumExact, c.RingEvents, c.RingCap))
	}
	return t
}
