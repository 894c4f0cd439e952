package fleet

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// marshalResult canonicalizes a run for byte-level comparison.
func marshalResult(t *testing.T, cfg Config) []byte {
	t.Helper()
	return marshalEngine(t, cfg, Run)
}

// marshalEngine is marshalResult on a given engine (Run, or the test-only
// single-heap reference).
func marshalEngine(t *testing.T, cfg Config, engine func(Config) (*Result, error)) []byte {
	t.Helper()
	res, err := engine(cfg)
	if err != nil {
		t.Fatalf("shards=%d: %v", cfg.Shards, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardCountInvariance is the engine-equivalence regression: the
// sequential engine (shards 0) and the sharded engine at every shard count
// must produce Results byte-identical to the single-heap oracle's, across
// policies, under faults with migration, and with the adaptive controller
// riding a diurnal curve. This is what licenses using Shards as a pure
// wall-clock knob, and keeping ready events as bare (t, lane) entries.
func TestShardCountInvariance(t *testing.T) {
	variants := map[string]func(Config) Config{
		"plain": func(c Config) Config { return c },
		"faults": func(c Config) Config {
			c.ServerFaults = &faults.ServerPlan{Events: []faults.ServerEvent{
				{Kind: faults.Crash, Server: 0, Start: 800 * simtime.Millisecond},
				{Kind: faults.Drain, Server: 2, Start: 1200 * simtime.Millisecond},
			}}
			c.Migrate = true
			return c
		},
		"adaptive": func(c Config) Config {
			c.Adaptive = DefaultAdaptive()
			c.Workload.DiurnalAmp = 0.6
			c.Workload.DiurnalPeriod = 2 * simtime.Second
			return c
		},
	}
	for name, mutate := range variants {
		for _, pol := range Policies() {
			cfg := mutate(DefaultConfig(64, 4, pol))
			cfg.Seed = 9
			ref := marshalEngine(t, cfg, runSequentialRef)
			for _, shards := range []int{0, 1, 2, 3, 4, 8, 64} {
				c := cfg
				c.Shards = shards
				if got := marshalResult(t, c); string(got) != string(ref) {
					t.Errorf("%s/%s: shards=%d diverged from the single-heap reference", name, pol, shards)
				}
			}
		}
	}

	// Tiered topology: 3-way placement, cross-tier promotion/demotion and
	// the per-tier histograms must survive sharding bit for bit. The cell
	// is loaded enough that both migration directions actually fire, so
	// the invariance covers the new event paths rather than idling past
	// them (tiers is EstAware-only, hence outside the policy loop above).
	// Tracing and tail sampling stay on so the invariance also covers the
	// retained exemplar set — its span segments ride in the Result JSON.
	tcfg := tieredBenchConfig(96, tiers.ThreeWay)
	tcfg.Seed = 9
	tcfg.Exemplars = 8
	tcfg.Tracer = obs.NewTracer(1 << 17)
	tref, err := runSequentialRef(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if tref.Promotions == 0 || tref.Demotions == 0 {
		t.Fatalf("tiered invariance cell idle (%d promotions, %d demotions): pick a hotter cell",
			tref.Promotions, tref.Demotions)
	}
	if len(tref.Exemplars) == 0 || tref.TraceDropped != 0 {
		t.Fatalf("tiered invariance cell retained %d exemplars with %d drops: sampling not exercised",
			len(tref.Exemplars), tref.TraceDropped)
	}
	refJSON, err := json.Marshal(tref)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1, 2, 4, 8} {
		c := tcfg
		c.Shards = shards
		c.Tracer = obs.NewTracer(1 << 17)
		if got := marshalResult(t, c); string(got) != string(refJSON) {
			t.Errorf("tiers: shards=%d diverged from the single-heap reference", shards)
		}
	}
}

// TestShardStepperInvariance: which goroutine steps a shard is up to the
// scheduler — the coordinator alone under one P, the coordinator and the
// helpers interleaved under four, with late helpers landing in whichever
// window is open. The Result must not depend on it. The dense cell has a
// zero think floor, so the lookahead is the link floor alone and the run
// is thousands of short windows.
func TestShardStepperInvariance(t *testing.T) {
	plain := DefaultConfig(64, 4, EstAware)
	plain.Seed = 9
	tiered := tieredBenchConfig(96, tiers.ThreeWay)
	tiered.Seed = 9
	tiered.Exemplars = 8
	dense := plain
	dense.Workload.ThinkMin = 0
	cells := []struct {
		name   string
		cfg    Config
		shards []int
	}{
		{"plain", plain, []int{2, 8, 64}},
		{"tiered", tiered, []int{2, 8, 64}},
		{"dense", dense, []int{8}},
	}
	// run gives every traced run a ring of its own.
	run := func(cfg Config, engine func(Config) (*Result, error)) []byte {
		if cfg.Exemplars > 0 {
			cfg.Tracer = obs.NewTracer(1 << 17)
		}
		return marshalEngine(t, cfg, engine)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cells {
		ref := run(c.cfg, runSequentialRef)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, shards := range c.shards {
				cfg := c.cfg
				cfg.Shards = shards
				if got := run(cfg, Run); string(got) != string(ref) {
					t.Errorf("%s: GOMAXPROCS=%d shards=%d diverged from the single-heap reference", c.name, procs, shards)
				}
			}
		}
	}
	dense.Shards = 8
	res, err := Run(dense)
	if err != nil {
		t.Fatal(err)
	}
	if res.windows < res.Requests {
		t.Errorf("dense cell ran %d windows for %d requests: not the many-window case it is meant to be",
			res.windows, res.Requests)
	}
}

// TestShardedRunReleasesHelpers: a sharded Run must not leave its helper
// goroutines behind.
func TestShardedRunReleasesHelpers(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig(64, 4, EstAware)
	cfg.Shards = 8
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after a sharded run, %d before it", runtime.NumGoroutine(), before)
		}
	}
}

// TestShardOfInvertsShardLo: completions are mailed to shardOf(client), so
// it must name the shard whose [shardLo(s), shardLo(s+1)) range holds the
// client, for every split including the uneven ones.
func TestShardOfInvertsShardLo(t *testing.T) {
	for clients := 1; clients <= 130; clients++ {
		for nShards := 1; nShards <= min(clients, 17); nShards++ {
			for s := 0; s < nShards; s++ {
				lo, hi := shardLo(s, clients, nShards), shardLo(s+1, clients, nShards)
				if lo >= hi {
					t.Fatalf("%d clients / %d shards: shard %d is empty", clients, nShards, s)
				}
				for ci := lo; ci < hi; ci++ {
					if got := shardOf(ci, clients, nShards); got != s {
						t.Fatalf("%d clients / %d shards: client %d is in shard %d's range, shardOf says %d",
							clients, nShards, ci, s, got)
					}
				}
			}
		}
	}
}

// TestShardsExceedClients: more shards than clients must clamp, not break.
func TestShardsExceedClients(t *testing.T) {
	cfg := DefaultConfig(3, 2, RoundRobin)
	ref := marshalResult(t, cfg)
	cfg.Shards = 16
	if got := marshalResult(t, cfg); string(got) != string(ref) {
		t.Error("shards > clients diverged from sequential")
	}
}

// TestScaleSmoke is the sharded-engine contract at a size worth trusting:
// a 10k-client run through the sharded engine must match the sequential
// reference byte for byte. Skipped under -short because it is ~200x the
// size of the unit cells.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-client shard-invariance smoke")
	}
	cfg := DefaultConfig(10_000, 8, EstAware)
	cfg.RequestsPerClient = 3
	ref := marshalResult(t, cfg)
	cfg.Shards = 4
	if got := marshalResult(t, cfg); string(got) != string(ref) {
		t.Error("10k-client sharded run diverged from sequential")
	}
}
