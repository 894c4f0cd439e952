package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simtime"
)

// The fleet-scale experiment: a production-sized client population through
// the discrete-event engine, whether the sharded engine is a pure
// wall-clock knob (bit-identical results), and whether adaptive admission
// earns its keep on a diurnal load curve. Its record holds simulated values
// only; engine throughput (sequential vs sharded events/s) is measured by
// bench/ (fleet.par_speedup_x) and BenchmarkFleetCell.

// ScaleCell is the simulated outcome of one engine run.
type ScaleCell struct {
	Clients  int     `json:"clients"`
	Servers  int     `json:"servers"`
	Requests int     `json:"requests_per_client"`
	Events   int64   `json:"events"`
	P99Ms    float64 `json:"p99_ms"`
	Sheds    int     `json:"sheds"`
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

// ExemplarCell records the tail-sampled exemplar run: a 100k-client cell
// with the sampler on and a bounded tracer ring attached, plus the
// structural facts CheckFloor enforces — the slowest-K jobs all retained,
// every retained exemplar assembling into a complete span tree whose
// critical-path segments sum exactly to its latency, and the whole flush
// staying inside the ring's existing memory bound.
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

// ScaleBench is the machine-readable record committed as
// BENCH_fleet_scale.json. Every field is determined by the sweep's
// parameters: the same bytes on any host, at any shard count.
type ScaleBench struct {
	Parity string `json:"parity"` // "ok" after the cross-engine byte-identity gate

	// Big is the headline run: a million clients over sixteen servers.
	Big ScaleCell `json:"big"`

	Adaptive []AdaptiveCell `json:"adaptive"`

	// Exemplar is the tail-sampling cell; nil (and absent from the JSON)
	// unless the sweep ran with exemplars > 0.
	Exemplar *ExemplarCell `json:"exemplar,omitempty"`
}

// scaleConfig is the shared workload of the scale cells: est-aware policy
// (the most expensive dispatcher — it prices every server per decision)
// over a 16-server heterogeneous pool.
func scaleConfig(clients, rpc, shards int) fleet.Config {
	cfg := fleet.DefaultConfig(clients, 16, fleet.EstAware)
	cfg.RequestsPerClient = rpc
	cfg.Shards = shards
	return cfg
}

// exemplarCell runs the scale workload with the tail sampler on and a
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

// ScaleSweep runs the fleet-scale experiment. clients sizes the headline
// cell; shards is fleet.Config.Shards for every cell after the parity gate
// (0 = the sequential reference engine); exemplars > 0 adds the
// tail-sampling cell retaining that many jobs per category. Beside the
// record it returns the host time the headline cell took — for the
// terminal only, it is not part of the record.
func ScaleSweep(clients, shards, exemplars int) (*ScaleBench, time.Duration, error) {
	b := &ScaleBench{}

	// Parity gate: prove the engines agree byte for byte on a cell small
	// enough to run across several shard counts and every policy.
	for _, pol := range fleet.Policies() {
		cfg := fleet.DefaultConfig(64, 4, pol)
		cfg.Seed = 9
		var ref []byte
		for _, s := range []int{0, 1, 4} {
			c := cfg
			c.Shards = s
			res, err := fleet.Run(c)
			if err != nil {
				return nil, 0, fmt.Errorf("parity %s shards=%d: %w", pol, s, err)
			}
			bs, err := json.Marshal(res)
			if err != nil {
				return nil, 0, err
			}
			if s == 0 {
				ref = bs
			} else if string(bs) != string(ref) {
				return nil, 0, fmt.Errorf("parity: %s shards=%d diverged from sequential", pol, s)
			}
		}
	}
	b.Parity = "ok"

	if exemplars > 0 {
		var err error
		if b.Exemplar, err = exemplarCell(100_000, shards, exemplars); err != nil {
			return nil, 0, err
		}
	}

	big := scaleConfig(clients, 3, shards) // a million clients need fewer requests each to stay in budget
	t0 := time.Now()
	res, err := fleet.Run(big)
	if err != nil {
		return nil, 0, fmt.Errorf("big cell: %w", err)
	}
	elapsed := time.Since(t0)
	b.Big = ScaleCell{
		Clients: big.Clients, Servers: len(big.Servers), Requests: big.RequestsPerClient,
		Events: res.Events, P99Ms: res.P99Ms, Sheds: res.Sheds,
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
			return nil, 0, fmt.Errorf("adaptive cell seed=%d static: %w", seed, err)
		}
		ad, err := run(true)
		if err != nil {
			return nil, 0, fmt.Errorf("adaptive cell seed=%d adaptive: %w", seed, err)
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
	return b, elapsed, nil
}

// CheckFloor enforces the record's acceptance bar: the engines must have
// agreed byte for byte, adaptive admission must strictly reduce sheds +
// deadline misses on every diurnal seed without losing 5% of throughput,
// and the exemplar cell must retain the slowest jobs as complete, exactly
// decomposed span trees inside the trace-ring bound.
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

// Table renders the record for the terminal.
func (b *ScaleBench) Table() *report.Table {
	t := report.New(fmt.Sprintf("Fleet scale: engine parity %s", b.Parity),
		"cell", "clients", "servers", "req/client", "events", "p99 (ms)", "sheds")
	c := b.Big
	t.Add("big", c.Clients, c.Servers, c.Requests, c.Events, c.P99Ms, c.Sheds)
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
