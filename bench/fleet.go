package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// The two fleet workloads use the same layer in opposite ways:
// fleet_overload is decided almost entirely at the gate (99 % of requests
// stay local), fleet_tiered_chaos serves almost everything remotely while
// servers drain, crash and slow down under it.

// fleetCell is one fleet configuration, run through both engines per pass.
type fleetCell struct {
	tiered bool
	cfg    fleet.Config  // Shards == 0: the sequential reference
	shards int           // the sharded engine's worker count
	local  *fleet.Result // the same clients running everything locally
	seq    *fleet.Result // latest sequential result
}

// shardCount caps the only parallelism in the benchmark, the fleet
// engine's own shards. The fleet workloads run at that GOMAXPROCS too, so
// the collector's workers never outnumber the shards.
func shardCount() int { return min(runtime.GOMAXPROCS(0), 4) }

func (c *fleetCell) procs() int { return shardCount() }

func overloadConfig(s sizes, seed uint64) fleet.Config {
	cfg := fleet.DefaultConfig(s.overloadClients, 16, fleet.EstAware)
	cfg.RequestsPerClient = 10
	cfg.Seed = seed
	return cfg
}

// tieredChaosConfig is the BENCH_tiers.json task shape on a 128-edge /
// 32-cloud topology with adaptive admission, migration, and a server-fault
// plan that drains every eighth edge server, crashes a cloud server and
// slows one edge server down.
func tieredChaosConfig(s sizes, seed uint64) fleet.Config {
	const edge, cloud = 128, 32
	cfg := fleet.TieredConfig(s.tieredClients, tiers.Default(edge, cloud))
	cfg.RequestsPerClient = s.tieredRequests
	cfg.Seed = seed
	cfg.Workload.TmMin = 200 * simtime.Millisecond
	cfg.Workload.TmMax = 1 * simtime.Second
	cfg.Workload.MemMin = 64 << 10
	cfg.Workload.MemMax = 512 << 10
	cfg.Workload.DiurnalAmp = 0.6
	cfg.Workload.DiurnalPeriod = 10 * simtime.Second
	cfg.Adaptive = fleet.DefaultAdaptive()
	plan := &faults.ServerPlan{Seed: seed}
	for k := 0; k < edge/8; k++ {
		plan.Events = append(plan.Events, faults.ServerEvent{
			Kind: faults.Drain, Server: 8 * k, Start: simtime.PS(5+k) * simtime.Second})
	}
	plan.Events = append(plan.Events,
		faults.ServerEvent{Kind: faults.Crash, Server: edge, Start: 7 * simtime.Second},
		faults.ServerEvent{Kind: faults.Slowdown, Server: 1, Factor: 3,
			Start: 3 * simtime.Second, End: 20 * simtime.Second})
	cfg.ServerFaults = plan
	return cfg
}

// localOnly is cfg with a single server too slow to ever be worth the
// trip: the gate declines every request, so the clients — whose draws do
// not depend on any decision — run the identical tasks on the phone. Its
// geomean latency is the paper's normalization baseline for the fleet.
func localOnly(cfg fleet.Config) fleet.Config {
	cfg.Servers = []fleet.ServerSpec{{R: 0.01, Slots: 1}}
	cfg.Tiers = nil
	cfg.ServerFaults = nil
	cfg.Migrate = false
	cfg.Adaptive = fleet.Adaptive{}
	return cfg
}

func (c *fleetCell) setup(e *env) error {
	if c.tiered {
		c.cfg = tieredChaosConfig(e.opts.sizes, e.opts.seed)
	} else {
		c.cfg = overloadConfig(e.opts.sizes, e.opts.seed)
	}
	c.shards = shardCount()
	var err error
	if c.local, err = fleet.Run(localOnly(c.cfg)); err != nil {
		return err
	}
	if c.local.Declines != c.local.Requests {
		return fmt.Errorf("local-only baseline offloaded: %d of %d requests declined", c.local.Declines, c.local.Requests)
	}
	return nil
}

// ---- checks made from outside ----

// checkAccounting: every request was issued and every request ended one of
// the four ways.
func checkAccounting(cfg fleet.Config, r *fleet.Result) error {
	if want := cfg.Clients * cfg.RequestsPerClient; r.Requests != want {
		return fmt.Errorf("%d requests, want clients x requests/client = %d", r.Requests, want)
	}
	if sum := r.Offloads + r.Declines + r.Sheds + r.Fallbacks; r.Requests != sum {
		return fmt.Errorf("%d requests but offloads+declines+sheds+fallbacks = %d", r.Requests, sum)
	}
	return nil
}

// checkParity: the sharded engine must reproduce the sequential result
// byte for byte.
func checkParity(seq, par []byte) error {
	if !bytes.Equal(seq, par) {
		return errors.New("sharded result JSON differs from the sequential engine's")
	}
	return nil
}

func (c *fleetCell) pass(e *env) {
	run := func(span string, shards int) (*fleet.Result, []byte, error) {
		cfg := c.cfg
		cfg.Shards = shards
		e.rec.nextOp()
		res, err := spanned(e.rec, span, func() (*fleet.Result, error) { return fleet.Run(cfg) })
		if err != nil {
			return nil, nil, err
		}
		raw, err := json.Marshal(res)
		return res, raw, errors.Join(err, checkAccounting(cfg, res))
	}
	seq, seqJSON, err := run("fleet.seq_host_s", 0)
	e.done("sequential", err)
	if err != nil {
		return
	}
	_, parJSON, err := run("fleet.par_host_s", c.shards)
	if err == nil {
		err = checkParity(seqJSON, parJSON)
	}
	e.done("sharded", err)

	c.seq = seq
	sim := e.sim
	sim["sim_speedup_x"] = c.local.GeomeanMs / seq.GeomeanMs
	sim["fleet.sim_p99_ms"] = seq.P99Ms
	sim["fleet.sim_geomean_ms"] = seq.GeomeanMs
	sim["fleet.events"] = float64(seq.Events)
	sim["fleet.requests"] = float64(seq.Requests)
	sim["fleet.offloads"] = float64(seq.Offloads)
	sim["fleet.declines"] = float64(seq.Declines)
	sim["fleet.sheds"] = float64(seq.Sheds)
	sim["fleet.fallbacks"] = float64(seq.Fallbacks)
	sim["fleet.migrations"] = float64(seq.Migrations)
	sim["fleet.retried"] = float64(seq.Retried)
	sim["fleet.deadline_misses"] = float64(seq.DeadlineMisses)
	sim["fleet.offload_frac"] = float64(seq.Offloads) / float64(seq.Dispatched)
	sim["fleet.max_queue_depth"] = float64(seq.MaxQueueDepth)
	sim["fleet.queue_wait_p99_ms"] = simtime.PS(seq.QueueWait.P99).Millis()
	sim["fleet.sim_makespan_s"] = seq.MakespanMs / 1e3
	sim["fleet.sim_throughput_rps"] = seq.ThroughputRPS
	sim["tiers.edge_offloads"] = float64(seq.EdgeOffloads)
	sim["tiers.cloud_offloads"] = float64(seq.CloudOffloads)
	sim["tiers.promotions"] = float64(seq.Promotions)
	sim["tiers.demotions"] = float64(seq.Demotions)
}

// layers: engine host time from the spans, then the probes — Validate, the
// placement micro-benchmark that prices the decision core from outside,
// and (tiered cell) the cost of the simulator's own tracing.
func (c *fleetCell) layers(e *env, self, _ spanTimes, passes int, m map[string]float64) {
	seqS := self.sum("fleet.seq_host_s") / float64(passes)
	parS := self.sum("fleet.par_host_s") / float64(passes)
	events := float64(c.seq.Events)
	m["fleet.seq_host_s"] = seqS
	m["fleet.par_host_s"] = parS
	m["fleet.shards"] = float64(c.shards)
	m["fleet.seq_events_per_s"] = events / seqS
	m["fleet.par_events_per_s"] = events / parS
	m["fleet.par_speedup_x"] = seqS / parS
	m["fleet.host_ns_per_event"] = seqS * 1e9 / events

	par := c.cfg
	par.Shards = c.shards
	m["fleet.validate_s"] = stopwatch(func() {
		e.done("validate", errors.Join(c.cfg.Validate(), par.Validate()))
	})

	m["estimate.placement_ns"] = placementNs(e.opts.seed)
	m["estimate.decision_share"] = m["estimate.placement_ns"] * 1e-9 * float64(c.seq.Requests) / seqS

	if c.tiered {
		c.tracingProbe(e, seqS, m)
	}
}

// placementNs is the median cost of one estimate.Placement call over a
// seeded table of tasks and queue states (1000 batches of 1000 calls).
func placementNs(seed uint64) float64 {
	type row struct {
		tm          simtime.PS
		mem         int64
		edge, cloud estimate.TierOption
	}
	rng := splitmix(seed)
	table := make([]row, 1024)
	for i := range table {
		opt := func(r float64, bw int64, rtt simtime.PS) estimate.TierOption {
			return estimate.TierOption{OK: true, Queue: simtime.PS(rng.next() % uint64(2*simtime.Second)),
				P: estimate.Params{R: r, BandwidthBps: bw, RTT: rtt}}
		}
		table[i] = row{
			tm:    200*simtime.Millisecond + simtime.PS(rng.next()%uint64(800*simtime.Millisecond)),
			mem:   64<<10 + int64(rng.next()%(448<<10)),
			edge:  opt(3, 400_000_000, 4*simtime.Millisecond),
			cloud: opt(8, 100_000_000, 44*simtime.Millisecond),
		}
	}
	var sink simtime.PS
	batches := make([]float64, 1000)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < 1000; i++ {
			r := &table[(b+i)%len(table)]
			_, est := estimate.Placement(r.tm, r.mem, r.edge, r.cloud)
			sink += est
		}
		batches[b] = float64(time.Since(t0).Nanoseconds()) / 1000
	}
	if sink == 0 {
		return 0
	}
	return median(batches)
}

// tracingProbe re-runs the sequential cell with the simulator's tracer and
// tail sampler on, then times span assembly and the critical-path analyzer
// on the ring it left.
func (c *fleetCell) tracingProbe(e *env, untracedS float64, m map[string]float64) {
	cfg := c.cfg
	cfg.Tracer = obs.NewTracer(0)
	cfg.Exemplars = 64
	var res *fleet.Result
	var err error
	tracedS := stopwatch(func() { res, err = fleet.Run(cfg) })
	if err == nil && (res.P99Ms != c.seq.P99Ms || res.Events != c.seq.Events) {
		err = errors.New("tracing changed the simulated result")
	}
	e.done("traced fleet run", err)
	if err != nil {
		return
	}
	events := cfg.Tracer.Events()
	m["obs.trace_events"] = float64(len(events))
	m["obs.trace_dropped"] = float64(res.TraceDropped)
	m["obs.exemplars_retained"] = float64(len(res.Exemplars))
	m["obs.sim_tracing_overhead_frac"] = tracedS/untracedS - 1
	trees := 0
	m["obs.assemble_s"] = stopwatch(func() { trees = len(obs.AssembleSpans(events)) })
	m["obs.critpath_s"] = stopwatch(func() { trees += len(analyze.Crit(events).Jobs) })
	if trees == 0 {
		e.done("span assembly", errors.New("no job trees in the trace ring"))
	}
}

func stopwatch(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// splitmix is the benchmark's own seeded stream (splitmix64), for session
// order, fault-plan seeds and the placement table.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
