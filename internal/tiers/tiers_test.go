package tiers

import (
	"testing"

	"repro/internal/estimate"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

func TestValidate(t *testing.T) {
	if err := Default(2, 4).Validate(); err != nil {
		t.Fatalf("default topology invalid: %v", err)
	}
	var nilTopo *Topology
	if err := nilTopo.Validate(); err != nil {
		t.Fatalf("nil topology should validate (untiered): %v", err)
	}
	bad := []Topology{
		{Edge: Pool{Servers: 0}, Cloud: Pool{Servers: 0}},
		{Edge: Pool{Servers: 2, R: 0, Slots: 2}, Cloud: Pool{Servers: 1, R: 8, Slots: 4}},
		{Edge: Pool{Servers: 2, R: 3, Slots: 0}},
		{Mode: "bogus", Edge: Pool{Servers: 2, R: 3, Slots: 2}},
		{Edge: Pool{Servers: -1}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("case %d: bad topology %+v validated", i, bad[i])
		}
	}
}

func TestTierGeometry(t *testing.T) {
	topo := Default(3, 5)
	if got := topo.Total(); got != 8 {
		t.Fatalf("Total = %d, want 8", got)
	}
	for si := 0; si < topo.Total(); si++ {
		want := Edge
		if si >= 3 {
			want = Cloud
		}
		if got := topo.TierOf(si); got != want {
			t.Errorf("TierOf(%d) = %v, want %v", si, got, want)
		}
	}
	if lo, hi := topo.Indices(Edge); lo != 0 || hi != 3 {
		t.Errorf("edge indices = [%d, %d), want [0, 3)", lo, hi)
	}
	if lo, hi := topo.Indices(Cloud); lo != 3 || hi != 8 {
		t.Errorf("cloud indices = [%d, %d), want [3, 8)", lo, hi)
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range Modes() {
		got, err := ParseMode(string(m))
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m, got, err)
		}
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Error("ParseMode accepted garbage")
	}
	if got := (&Topology{}).EffectiveMode(); got != ThreeWay {
		t.Errorf("zero mode resolves to %v, want %v", got, ThreeWay)
	}
}

func TestCombineBps(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 1_000, 1_000},     // ideal access leg passes the WAN through
		{1_000, 0, 1_000},     // and vice versa
		{1_000, 1_000, 500},   // equal legs halve
		{500, 1_000_000, 499}, // a slow leg dominates
	}
	for _, c := range cases {
		if got := CombineBps(c.a, c.b); got != c.want {
			t.Errorf("CombineBps(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// CloudParams must price the serial path exactly as the event timeline
// does: CommTime over the combined params equals the sum of per-leg
// transfer charges plus both round-trip fixed costs.
func TestCloudParamsMatchesPerLegCharges(t *testing.T) {
	topo := Default(2, 4)
	access, _ := netsim.Profile("edge-wifi")
	accessP := estimate.Params{
		BandwidthBps: access.BandwidthBps,
		RTT:          2 * (access.Latency + access.PerMessage),
	}
	wan := topo.WAN()
	for _, mem := range []int64{64 << 10, 1 << 20, 16 << 20} {
		p := topo.CloudParams(accessP)
		if p.R != topo.Cloud.R {
			t.Fatalf("CloudParams R = %g, want %g", p.R, topo.Cloud.R)
		}
		got := p.CommTime(mem, 1)
		// The per-leg charge of the event timeline: access up+down plus
		// WAN up+down, each TransferTime including one latency+permsg.
		want := 2*access.TransferTime(mem) + 2*wan.TransferTime(mem)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		// Harmonic-combination float rounding: allow 1ns on multi-ms sums.
		if diff > simtime.PS(1000) {
			t.Errorf("mem=%d: combined CommTime %v != per-leg charges %v (diff %v)", mem, got, want, diff)
		}
	}
}
