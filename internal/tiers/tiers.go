// Package tiers models the hierarchical offload topology: every mobile
// client reaches a nearby *edge* pool over its access link, and the edge
// reaches a distant *cloud* pool over a wide-area backhaul. The two
// remote tiers trade against each other exactly along the axes of
// Equation 1 — the edge is close (sub-millisecond RTT) but modestly
// provisioned (small compute ratio R, few slots), the cloud is far
// (tens of milliseconds of WAN propagation) but fast and wide — which
// turns the paper's binary offload gate into a 3-way *placement*
// decision (estimate.Cheapest, through PlacementMargin): local, edge, or
// cloud, re-evaluated per invocation against each tier's live queueing delay.
//
// The package is pure topology description: geometry, capacities and
// link arithmetic. The fleet alone consumes it, for dispatch and
// cross-tier migration; a single offrt session keeps the paper's binary
// gate against its one server.
package tiers

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// Tier identifies one level of the offload hierarchy.
type Tier uint8

const (
	// Edge is the nearby pool: low RTT, small R.
	Edge Tier = iota
	// Cloud is the distant pool: WAN RTT, large R.
	Cloud
)

func (t Tier) String() string {
	if t == Cloud {
		return "cloud"
	}
	return "edge"
}

// Track maps the tier onto its trace-exporter timeline, so every producer
// of tier-attributed spans (the fleet's exemplar segments above all)
// renders a given tier on the same Chrome track.
func (t Tier) Track() obs.Track {
	if t == Cloud {
		return obs.TrackCloud
	}
	return obs.TrackEdge
}

// Pool describes one tier's server pool: homogeneous capacity, since a
// tier is a provisioning class rather than a grab-bag of machines.
type Pool struct {
	// Servers is the pool size. Zero removes the tier from the topology.
	Servers int
	// R is the tier's server/mobile performance ratio (Equation 1's R).
	R float64
	// Slots is the number of concurrent execution slots per server.
	Slots int
}

// Mode selects the placement policy over the topology.
type Mode string

const (
	// ThreeWay is the est-aware 3-way gate: every request is placed on
	// whichever of {local, edge, cloud} minimizes estimated completion.
	ThreeWay Mode = "3way"
	// EdgeOnly statically pins offloads to the edge pool (the 2-way gate
	// against the edge tier; the cloud sits idle).
	EdgeOnly Mode = "edge-only"
	// CloudOnly statically pins offloads to the cloud pool.
	CloudOnly Mode = "cloud-only"
)

// Modes lists every placement mode, in comparison order.
func Modes() []Mode { return []Mode{ThreeWay, EdgeOnly, CloudOnly} }

// parseMode resolves a mode name.
func parseMode(s string) (Mode, error) {
	for _, m := range Modes() {
		if string(m) == s {
			return m, nil
		}
	}
	return "", fmt.Errorf("tiers: unknown placement mode %q (want 3way, edge-only or cloud-only)", s)
}

// Topology is the full hierarchical layout.
type Topology struct {
	// Mode is the placement policy (defaults to ThreeWay when empty).
	Mode Mode
	// Edge and Cloud are the two remote pools. Edge servers occupy the
	// low fleet indices [0, Edge.Servers), cloud servers follow.
	Edge  Pool
	Cloud Pool
}

// Default returns the standard experiment topology: a small nearby edge
// (R=3, 2 slots — half-speed machines racked at the access point) and a
// deeper, faster cloud (R=8, 4 slots) behind the CloudWAN backhaul.
func Default(edgeServers, cloudServers int) *Topology {
	return &Topology{
		Mode:  ThreeWay,
		Edge:  Pool{Servers: edgeServers, R: 3, Slots: 2},
		Cloud: Pool{Servers: cloudServers, R: 8, Slots: 4},
	}
}

// Validate rejects topologies the placement machinery cannot run with.
func (t *Topology) Validate() error {
	if t == nil {
		return nil
	}
	if t.Mode != "" {
		if _, err := parseMode(string(t.Mode)); err != nil {
			return err
		}
	}
	if t.Edge.Servers < 0 || t.Cloud.Servers < 0 {
		return fmt.Errorf("tiers: negative pool size (edge=%d, cloud=%d)", t.Edge.Servers, t.Cloud.Servers)
	}
	if t.Total() == 0 {
		return fmt.Errorf("tiers: both pools empty")
	}
	for _, tc := range []struct {
		tier Tier
		p    Pool
	}{{Edge, t.Edge}, {Cloud, t.Cloud}} {
		if tc.p.Servers > 0 && (tc.p.R <= 0 || tc.p.Slots <= 0) {
			return fmt.Errorf("tiers: %v pool has non-positive capacity (R=%g, slots=%d)", tc.tier, tc.p.R, tc.p.Slots)
		}
	}
	return nil
}

// EffectiveMode resolves the zero value to ThreeWay.
func (t *Topology) EffectiveMode() Mode {
	if t.Mode == "" {
		return ThreeWay
	}
	return t.Mode
}

// Total is the fleet-wide server count.
func (t *Topology) Total() int { return t.Edge.Servers + t.Cloud.Servers }

// TierOf maps a fleet server index to its tier.
func (t *Topology) TierOf(si int) Tier {
	if si < t.Edge.Servers {
		return Edge
	}
	return Cloud
}

// Indices returns the half-open fleet index range [lo, hi) of a tier.
func (t *Topology) Indices(tier Tier) (lo, hi int) {
	if tier == Edge {
		return 0, t.Edge.Servers
	}
	return t.Edge.Servers, t.Total()
}

// WAN is the edge<->cloud backhaul every cloud-bound byte (and every
// cross-tier migration) crosses in series with the client's access link:
// netsim.CloudWAN().
func (t *Topology) WAN() *netsim.Link { return netsim.CloudWAN() }

// CombineBps is the serial-path effective bandwidth of two links
// crossed back to back: wire times add, so the rates combine
// harmonically (1/bw = 1/a + 1/b). Zero is netsim's ideal-link
// convention — a free leg — so it passes the other rate through.
func CombineBps(a, b int64) int64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	return int64(1 / (1/float64(a) + 1/float64(b)))
}
