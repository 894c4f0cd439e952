package fleet

import (
	"encoding/json"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// marshalResult canonicalizes a run for byte-level comparison.
func marshalResult(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
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
// sharded engine must produce byte-identical Results to the sequential
// reference for every shard count, across policies, under faults with
// migration, and with the adaptive controller riding a diurnal curve.
// This is what licenses using Shards as a pure wall-clock knob.
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
			ref := marshalResult(t, cfg)
			for _, shards := range []int{1, 2, 3, 4, 8, 64} {
				c := cfg
				c.Shards = shards
				if got := marshalResult(t, c); string(got) != string(ref) {
					t.Errorf("%s/%s: shards=%d diverged from sequential", name, pol, shards)
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
	tref, err := Run(tcfg)
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
	for _, shards := range []int{1, 2, 4, 8} {
		c := tcfg
		c.Shards = shards
		c.Tracer = obs.NewTracer(1 << 17)
		if got := marshalResult(t, c); string(got) != string(refJSON) {
			t.Errorf("tiers: shards=%d diverged from sequential", shards)
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
