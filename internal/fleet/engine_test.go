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
	return marshalEngine(t, cfg, Run)
}

// marshalEngine is marshalResult on a given engine (Run, or the test-only
// single-heap reference).
func marshalEngine(t *testing.T, cfg Config, engine func(Config) (*Result, error)) []byte {
	t.Helper()
	res, err := engine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEngineMatchesReference is the engine-equivalence regression: Run's
// two-queue engine must produce Results byte-identical to the single-heap
// oracle's, across policies, under faults with migration, with the
// adaptive controller riding a diurnal curve, and on the ready queue's
// rare paths — an unbounded backlog behind a silent crash, whose victims'
// next ready events land past the calendar's ring on its far list, and
// zero think times with tiny tasks, whose next ready events land in the
// bucket being consumed (each guarded: the path must fire under some
// policy). This is what licenses keeping ready events as bare (t, lane)
// entries in a calendar of their own.
func TestEngineMatchesReference(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(Config) Config
		path   func(readyPaths) int // the ready-queue path the variant exists to reach
	}{
		{name: "plain", mutate: func(c Config) Config { return c }},
		{name: "faults", mutate: func(c Config) Config {
			c.ServerFaults = &faults.ServerPlan{Events: []faults.ServerEvent{
				{Kind: faults.Crash, Server: 0, Start: 800 * simtime.Millisecond},
				{Kind: faults.Drain, Server: 2, Start: 1200 * simtime.Millisecond},
			}}
			c.Migrate = true
			return c
		}},
		{name: "adaptive", mutate: func(c Config) Config {
			c.Adaptive = DefaultAdaptive()
			c.Workload.DiurnalAmp = 0.6
			c.Workload.DiurnalPeriod = 2 * simtime.Second
			return c
		}},
		{name: "backlog", mutate: func(c Config) Config {
			// The load-blind policies pile every request onto two servers,
			// and one dies silently: its victims' clients wait out their
			// offload deadlines, seconds on, before running locally.
			c.Admission = Admission{}
			c.Servers = DefaultServers(2)
			c.ServerFaults = &faults.ServerPlan{Events: []faults.ServerEvent{
				{Kind: faults.Crash, Server: 1, Start: 1500 * simtime.Millisecond},
			}}
			return c
		}, path: func(p readyPaths) int { return min(p.far, p.spills) }},
		{name: "zero-think", mutate: func(c Config) Config {
			c.Workload.ThinkMin = 0
			c.Workload.TmMin = simtime.Millisecond
			return c
		}, path: func(p readyPaths) int { return p.inserts }},
	}
	for _, v := range variants {
		fired := 0
		for _, pol := range Policies() {
			cfg := v.mutate(DefaultConfig(64, 4, pol))
			cfg.Seed = 9
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if ref := marshalEngine(t, cfg, runSequentialRef); string(got) != string(ref) {
				t.Errorf("%s/%s: Run diverged from the single-heap reference", v.name, pol)
			}
			if v.path != nil {
				fired += v.path(res.readyPaths)
				t.Logf("%s/%s: ready-queue paths %+v", v.name, pol, res.readyPaths)
			}
		}
		if v.path != nil && fired == 0 {
			t.Errorf("%s: the ready queue never took the path the variant exists to reach", v.name)
		}
	}

	// Tiered topology: 3-way placement, cross-tier promotion/demotion and
	// the per-tier histograms must match bit for bit. The cell is loaded
	// enough that both migration directions actually fire, so the check
	// covers those event paths rather than idling past them (tiers is
	// EstAware-only, hence outside the policy loop above). Tracing and tail
	// sampling stay on so it also covers the retained exemplar set — its
	// span segments ride in the Result JSON.
	tcfg := tieredBenchConfig(96, tiers.ThreeWay)
	tcfg.Seed = 9
	tcfg.Exemplars = 8
	tcfg.Tracer = obs.NewTracer(1 << 17)
	tref, err := runSequentialRef(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if tref.Promotions == 0 || tref.Demotions == 0 {
		t.Fatalf("tiered cell idle (%d promotions, %d demotions): pick a hotter cell",
			tref.Promotions, tref.Demotions)
	}
	if len(tref.Exemplars) == 0 || tref.TraceDropped != 0 {
		t.Fatalf("tiered cell retained %d exemplars with %d drops: sampling not exercised",
			len(tref.Exemplars), tref.TraceDropped)
	}
	refJSON, err := json.Marshal(tref)
	if err != nil {
		t.Fatal(err)
	}
	tcfg.Tracer = obs.NewTracer(1 << 17)
	if got := marshalResult(t, tcfg); string(got) != string(refJSON) {
		t.Error("tiers: Run diverged from the single-heap reference")
	}
}

// TestScaleSmoke is the engine contract at a size worth trusting: a
// 10k-client run must match the single-heap reference byte for byte.
// Skipped under -short because it is ~200x the size of the unit cells.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-client engine-equivalence smoke")
	}
	cfg := DefaultConfig(10_000, 8, EstAware)
	cfg.RequestsPerClient = 3
	if got, ref := marshalResult(t, cfg), marshalEngine(t, cfg, runSequentialRef); string(got) != string(ref) {
		t.Error("10k-client run diverged from the single-heap reference")
	}
}
