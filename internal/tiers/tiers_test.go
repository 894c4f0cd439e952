package tiers

import "testing"

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
		got, err := parseMode(string(m))
		if err != nil || got != m {
			t.Errorf("parseMode(%q) = %v, %v", m, got, err)
		}
	}
	if _, err := parseMode("nope"); err == nil {
		t.Error("parseMode accepted garbage")
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
