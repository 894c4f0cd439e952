package fleet

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/internal/tiers"
)

// tieredBenchTopo is the topology the tier experiments run on: a pool of
// modest edge servers behind the access link and one fast, slot-rich
// cloud server behind the WAN. The asymmetry matters: the diurnal burst
// saturates the edge, and demotion moves its overflow to the cloud.
func tieredBenchTopo(mode tiers.Mode) *tiers.Topology {
	topo := tiers.Default(4, 1)
	topo.Edge.Slots = 2
	topo.Cloud.Slots = 4
	topo.Mode = mode
	return topo
}

// tieredBenchConfig is the workload cell the tier experiments share:
// tasks small enough that the WAN round trip is a real fraction of the
// execution saving, under a diurnal curve that alternates burst and
// drain phases across the tiers.
func tieredBenchConfig(clients int, mode tiers.Mode) Config {
	cfg := TieredConfig(clients, tieredBenchTopo(mode))
	cfg.RequestsPerClient = 20
	cfg.Workload.TmMin = 200 * simtime.Millisecond
	cfg.Workload.TmMax = 1 * simtime.Second
	cfg.Workload.MemMin = 64 << 10
	cfg.Workload.MemMax = 512 << 10
	cfg.Workload.DiurnalAmp = 0.6
	cfg.Workload.DiurnalPeriod = 10 * simtime.Second
	return cfg
}

func TestTieredConfigValidation(t *testing.T) {
	ok := tieredBenchConfig(8, tiers.ThreeWay)
	if err := ok.Validate(); err != nil {
		t.Fatalf("tiered default invalid: %v", err)
	}
	bad := ok
	bad.Policy = Random
	if err := bad.Validate(); err == nil {
		t.Error("tiered config accepted a non-est-aware policy")
	}
	bad = ok
	bad.Servers = bad.Servers[:len(bad.Servers)-1]
	if err := bad.Validate(); err == nil {
		t.Error("tiered config accepted a pool smaller than the topology")
	}
	bad = ok
	bad.Tiers = &tiers.Topology{Mode: "bogus"}
	if err := bad.Validate(); err == nil {
		t.Error("tiered config accepted an invalid topology")
	}
}

func TestTieredRunDeterministic(t *testing.T) {
	cfg := tieredBenchConfig(24, tiers.ThreeWay)
	a := marshalResult(t, cfg)
	b := marshalResult(t, cfg)
	if string(a) != string(b) {
		t.Error("tiered runs with identical config diverged")
	}
}

// TestTieredAccounting: every request completes down exactly one path,
// every completed offload lands on exactly one tier, and the tier fields
// appear only on tiered runs (the committed flat-fleet benchmark JSON
// must stay byte-identical).
func TestTieredAccounting(t *testing.T) {
	res, err := Run(tieredBenchConfig(48, tiers.ThreeWay))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Offloads + res.Declines + res.Sheds + res.Fallbacks; got != res.Requests {
		t.Errorf("paths sum to %d, want %d requests", got, res.Requests)
	}
	if got := res.EdgeOffloads + res.CloudOffloads; got != res.Offloads {
		t.Errorf("tier completions sum to %d, want %d offloads", got, res.Offloads)
	}
	if res.TierMode != string(tiers.ThreeWay) || res.EdgeServers != 4 || res.CloudServers != 1 {
		t.Errorf("tier geometry fields wrong: mode=%q edge=%d cloud=%d",
			res.TierMode, res.EdgeServers, res.CloudServers)
	}
	if res.QueueWaitEdge == nil || res.QueueWaitCloud == nil {
		t.Error("per-tier queue-wait histograms missing on a tiered run")
	}

	flat, err := Run(DefaultConfig(8, 2, EstAware))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tier_mode", "edge_offloads", "queue_wait_edge_hist", "demotions"} {
		if strings.Contains(string(b), key) {
			t.Errorf("untiered result JSON leaks tier field %q", key)
		}
	}
}

// TestTierModeMasks: the static baselines must be genuinely static —
// edge-only never touches the cloud, cloud-only never touches the edge,
// and neither migrates across tiers.
func TestTierModeMasks(t *testing.T) {
	for _, tc := range []struct {
		mode tiers.Mode
	}{{tiers.EdgeOnly}, {tiers.CloudOnly}} {
		res, err := Run(tieredBenchConfig(48, tc.mode))
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		if tc.mode == tiers.EdgeOnly && res.CloudOffloads != 0 {
			t.Errorf("edge-only completed %d offloads on the cloud", res.CloudOffloads)
		}
		if tc.mode == tiers.CloudOnly && res.EdgeOffloads != 0 {
			t.Errorf("cloud-only completed %d offloads on the edge", res.EdgeOffloads)
		}
		if res.Demotions != 0 {
			t.Errorf("%s: static mode migrated across tiers (%d demotions)", tc.mode, res.Demotions)
		}
	}
}

// TestTieredMigrationFires: non-vacuity of the cross-tier machinery —
// under burst overshoot the fleet must actually demote saturated-edge
// arrivals, not just carry the code.
func TestTieredMigrationFires(t *testing.T) {
	res, err := Run(tieredBenchConfig(96, tiers.ThreeWay))
	if err != nil {
		t.Fatal(err)
	}
	if res.Demotions == 0 {
		t.Error("no demotions fired: the saturated-edge forward path is vacuous")
	}
}

// TestThreeWayBeatsStaticTiers is the in-test version of the committed
// benchmark gate: across load levels, 3-way placement must hold both
// aggregate tails at or under each static baseline.
func TestThreeWayBeatsStaticTiers(t *testing.T) {
	loads := []int{24, 48, 96}
	agg := func(mode tiers.Mode) (p99, geo float64) {
		for _, n := range loads {
			res, err := Run(tieredBenchConfig(n, mode))
			if err != nil {
				t.Fatalf("%s n=%d: %v", mode, n, err)
			}
			p99 += res.P99Ms
			geo += res.GeomeanMs
		}
		return p99 / float64(len(loads)), geo / float64(len(loads))
	}
	p3, g3 := agg(tiers.ThreeWay)
	pe, ge := agg(tiers.EdgeOnly)
	pc, gc := agg(tiers.CloudOnly)
	if p3 > pe || p3 > pc {
		t.Errorf("3way aggregate p99 %.1fms not <= edge-only %.1fms and cloud-only %.1fms", p3, pe, pc)
	}
	if g3 > ge || g3 > gc {
		t.Errorf("3way aggregate geomean %.1fms not <= edge-only %.1fms and cloud-only %.1fms", g3, ge, gc)
	}
}

// TestTierSmoke is the make tiersmoke gate: one mid-load tiered cell must
// demote across tiers, and the 3-way placement must beat both static
// baselines on that cell's geomean.
func TestTierSmoke(t *testing.T) {
	ref, err := Run(tieredBenchConfig(96, tiers.ThreeWay))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Demotions == 0 {
		t.Error("tier smoke cell never migrated: the smoke is vacuous")
	}
	for _, mode := range []tiers.Mode{tiers.EdgeOnly, tiers.CloudOnly} {
		c := tieredBenchConfig(96, mode)
		res, err := Run(c)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if ref.GeomeanMs > res.GeomeanMs {
			t.Errorf("3way geomean %.1fms worse than %s %.1fms on the smoke cell",
				ref.GeomeanMs, mode, res.GeomeanMs)
		}
	}
}
