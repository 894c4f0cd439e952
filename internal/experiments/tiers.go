package experiments

import (
	"fmt"
	"math"

	"repro/internal/fleet"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// TierBenchCell is one (load, placement mode) cell of the multi-tier
// benchmark: the same clients, workload and seed, differing only in
// which tiers the placement may use.
type TierBenchCell struct {
	Clients int    `json:"clients"`
	Mode    string `json:"mode"`

	P99Ms     float64 `json:"p99_ms"`
	GeomeanMs float64 `json:"geomean_ms"`

	EdgeOffloads  int `json:"edge_offloads"`
	CloudOffloads int `json:"cloud_offloads"`
	Demotions     int `json:"demotions"`
	Declines      int `json:"declines"`
	Sheds         int `json:"sheds"`
}

// TierBench is the committed BENCH_tiers.json record: the topology, the
// per-cell results, and the per-mode aggregates the floor check runs
// against (p99 as the mean over loads, geomean as the geometric mean
// over loads).
type TierBench struct {
	EdgeServers  int     `json:"edge_servers"`
	EdgeSlots    int     `json:"edge_slots"`
	EdgeR        float64 `json:"edge_r"`
	CloudServers int     `json:"cloud_servers"`
	CloudSlots   int     `json:"cloud_slots"`
	CloudR       float64 `json:"cloud_r"`
	Seed         uint64  `json:"seed"`

	Cells []*TierBenchCell `json:"cells"`

	ThreeWayP99Ms  float64 `json:"three_way_p99_ms"`
	ThreeWayGeoMs  float64 `json:"three_way_geomean_ms"`
	EdgeOnlyP99Ms  float64 `json:"edge_only_p99_ms"`
	EdgeOnlyGeoMs  float64 `json:"edge_only_geomean_ms"`
	CloudOnlyP99Ms float64 `json:"cloud_only_p99_ms"`
	CloudOnlyGeoMs float64 `json:"cloud_only_geomean_ms"`
}

// tierBenchTopology is the benchmark's hierarchy: a pool of modest edge
// servers on the access link and a small, fast cloud pool behind the
// WAN. The default 4-edge/1-cloud asymmetry is what gives the 3-way
// placement its room: the diurnal burst saturates the edge faster than
// the gate's estimates foresee, and demotion moves the overflow to the
// cloud.
func tierBenchTopology(mode tiers.Mode, edgeServers, cloudServers int) *tiers.Topology {
	topo := tiers.Default(edgeServers, cloudServers)
	topo.Mode = mode
	return topo
}

// tierBenchConfig is one benchmark cell: tasks short enough that the WAN
// round trip is a real fraction of the cloud's execution saving, under a
// diurnal curve that alternates burst and drain phases across the tiers.
func tierBenchConfig(clients int, topo *tiers.Topology, seed uint64) fleet.Config {
	cfg := fleet.TieredConfig(clients, topo)
	cfg.Seed = seed
	cfg.RequestsPerClient = 20
	cfg.Workload.TmMin = 200 * simtime.Millisecond
	cfg.Workload.TmMax = 1 * simtime.Second
	cfg.Workload.MemMin = 64 << 10
	cfg.Workload.MemMax = 512 << 10
	cfg.Workload.DiurnalAmp = 0.6
	cfg.Workload.DiurnalPeriod = 10 * simtime.Second
	return cfg
}

// TierSweep runs the multi-tier placement benchmark: each load level
// through all three placement modes over the same topology, workload and
// seed, so the mode columns differ only in which tiers the gate may use
// and whether cross-tier migration may correct the placement later. The
// committed record uses the default 4-edge/1-cloud geometry; other
// geometries run the same sweep but are not guaranteed to hold the floor.
func TierSweep(loads []int, edgeServers, cloudServers int, seed uint64) (*TierBench, error) {
	topo := tierBenchTopology(tiers.ThreeWay, edgeServers, cloudServers)
	bench := &TierBench{
		EdgeServers: topo.Edge.Servers, EdgeSlots: topo.Edge.Slots, EdgeR: topo.Edge.R,
		CloudServers: topo.Cloud.Servers, CloudSlots: topo.Cloud.Slots, CloudR: topo.Cloud.R,
		Seed: seed,
	}
	type agg struct {
		sumP99, logGeo float64
	}
	aggs := map[tiers.Mode]*agg{}
	for _, n := range loads {
		for _, mode := range tiers.Modes() {
			cfg := tierBenchConfig(n, tierBenchTopology(mode, edgeServers, cloudServers), seed)
			res, err := fleet.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("tier sweep %s n=%d: %w", mode, n, err)
			}
			bench.Cells = append(bench.Cells, &TierBenchCell{
				Clients: n, Mode: string(mode),
				P99Ms: res.P99Ms, GeomeanMs: res.GeomeanMs,
				EdgeOffloads: res.EdgeOffloads, CloudOffloads: res.CloudOffloads,
				Demotions: res.Demotions, Declines: res.Declines, Sheds: res.Sheds,
			})
			a := aggs[mode]
			if a == nil {
				a = &agg{}
				aggs[mode] = a
			}
			a.sumP99 += res.P99Ms
			a.logGeo += math.Log(res.GeomeanMs)
		}
	}
	n := float64(len(loads))
	final := func(m tiers.Mode) (float64, float64) {
		a := aggs[m]
		return a.sumP99 / n, math.Exp(a.logGeo / n)
	}
	bench.ThreeWayP99Ms, bench.ThreeWayGeoMs = final(tiers.ThreeWay)
	bench.EdgeOnlyP99Ms, bench.EdgeOnlyGeoMs = final(tiers.EdgeOnly)
	bench.CloudOnlyP99Ms, bench.CloudOnlyGeoMs = final(tiers.CloudOnly)
	return bench, nil
}

// CheckFloor enforces the benchmark's acceptance bar: 3-way est-aware
// placement must hold both aggregate tails at or under each static
// baseline, and cross-tier demotion must actually have fired somewhere
// in the sweep (a placement win with an idle demotion path would not
// exercise what the benchmark claims to).
func (b *TierBench) CheckFloor() error {
	if b.ThreeWayP99Ms > b.EdgeOnlyP99Ms || b.ThreeWayP99Ms > b.CloudOnlyP99Ms {
		return fmt.Errorf("tier bench: p99 floor broken: 3way %.2f ms vs edge-only %.2f ms, cloud-only %.2f ms",
			b.ThreeWayP99Ms, b.EdgeOnlyP99Ms, b.CloudOnlyP99Ms)
	}
	if b.ThreeWayGeoMs > b.EdgeOnlyGeoMs || b.ThreeWayGeoMs > b.CloudOnlyGeoMs {
		return fmt.Errorf("tier bench: geomean floor broken: 3way %.2f ms vs edge-only %.2f ms, cloud-only %.2f ms",
			b.ThreeWayGeoMs, b.EdgeOnlyGeoMs, b.CloudOnlyGeoMs)
	}
	moved := 0
	for _, c := range b.Cells {
		moved += c.Demotions
	}
	if moved == 0 {
		return fmt.Errorf("tier bench: no cell demoted; the migration machinery is vacuous")
	}
	return nil
}

// Table renders the benchmark for the CLI.
func (b *TierBench) Table() *report.Table {
	t := report.New(fmt.Sprintf("Multi-tier placement: %dx edge (R=%g, %d slots) + %dx cloud (R=%g, %d slots) over WAN",
		b.EdgeServers, b.EdgeR, b.EdgeSlots, b.CloudServers, b.CloudR, b.CloudSlots),
		"clients", "mode", "p99 (ms)", "geomean (ms)", "edge", "cloud",
		"demoted", "declines", "sheds")
	for _, c := range b.Cells {
		t.Add(c.Clients, c.Mode, c.P99Ms, c.GeomeanMs, c.EdgeOffloads, c.CloudOffloads,
			c.Demotions, c.Declines, c.Sheds)
	}
	t.Note("aggregate p99: 3way %.1f ms vs edge-only %.1f ms, cloud-only %.1f ms",
		b.ThreeWayP99Ms, b.EdgeOnlyP99Ms, b.CloudOnlyP99Ms)
	t.Note("aggregate geomean: 3way %.1f ms vs edge-only %.1f ms, cloud-only %.1f ms",
		b.ThreeWayGeoMs, b.EdgeOnlyGeoMs, b.CloudOnlyGeoMs)
	// The floor averages p99 over loads; name every load where that mean
	// hides a 3-way loss to a static mode.
	lost := false
	for _, c := range b.Cells {
		if c.Mode != string(tiers.ThreeWay) {
			continue
		}
		for _, o := range b.Cells {
			if o.Clients == c.Clients && o.Mode != c.Mode && o.P99Ms < c.P99Ms {
				t.Note("3way loses p99 at %d clients: %.1f ms vs %.1f ms %s", c.Clients, c.P99Ms, o.P99Ms, o.Mode)
				lost = true
			}
		}
	}
	if lost && b.ThreeWayP99Ms <= min(b.EdgeOnlyP99Ms, b.CloudOnlyP99Ms) {
		t.Note("the aggregate p99 floor passes only on the mean over loads")
	}
	return t
}

// TierBenchLoads is the default load ladder of the tier benchmark: from
// a lightly loaded fleet (placement alone decides) through the burst
// regime where cross-tier migration corrects the placement mid-flight.
func TierBenchLoads() []int { return []int{24, 48, 96, 128} }
