package experiments

import (
	"strings"
	"testing"
)

// TestScaleFloorRejects pins the fleet-scale floor's failure modes; that
// the committed record passes it is TestCommittedRecords.
func TestScaleFloorRejects(t *testing.T) {
	healthy := func() *ScaleBench {
		return &ScaleBench{
			Parity: "ok",
			Adaptive: []AdaptiveCell{{Seed: 1,
				StaticSheds: 80, StaticMisses: 320, StaticRPS: 100,
				AdaptiveSheds: 7, AdaptiveMisses: 4, AdaptiveRPS: 100}},
			Exemplar: &ExemplarCell{Exemplars: 64, Retained: 129, SlowRetained: 64,
				CompleteTrees: 129, SumExact: 129, RingEvents: 32768, RingCap: 32768},
		}
	}
	if err := healthy().CheckFloor(); err != nil {
		t.Fatalf("healthy record rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ScaleBench)
		want   string
	}{
		{"parity", func(b *ScaleBench) { b.Parity = "" }, "parity gate"},
		{"adaptive loses", func(b *ScaleBench) { b.Adaptive[0].AdaptiveSheds = 400 }, "not below static"},
		{"adaptive ties", func(b *ScaleBench) { b.Adaptive[0].AdaptiveSheds, b.Adaptive[0].AdaptiveMisses = 80, 320 }, "not below static"},
		{"no pressure", func(b *ScaleBench) { b.Adaptive[0].StaticSheds, b.Adaptive[0].StaticMisses = 0, 0 }, "vacuous"},
		{"throughput", func(b *ScaleBench) { b.Adaptive[0].AdaptiveRPS = 94 }, "gave up >5%"},
		{"slowest dropped", func(b *ScaleBench) { b.Exemplar.SlowRetained = 63 }, "retained 63 slowest jobs"},
		{"broken tree", func(b *ScaleBench) { b.Exemplar.CompleteTrees = 128 }, "complete span trees"},
		{"inexact sum", func(b *ScaleBench) { b.Exemplar.SumExact = 128 }, "sum identity"},
		{"ring overflow", func(b *ScaleBench) { b.Exemplar.RingEvents = 32769 }, "overflowed the trace ring"},
	}
	for _, tc := range cases {
		b := healthy()
		tc.mutate(b)
		if err := b.CheckFloor(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckFloor = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
