package estimate

import (
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// randTier draws a plausible tier option from rng: WiFi-to-WAN-class
// bandwidth, µs-to-tens-of-ms RTT, compute ratio 1..16, queue 0..200ms.
func randTier(rng *rand.Rand) TierOption {
	return TierOption{
		OK: true,
		P: Params{
			R:            1 + 15*rng.Float64(),
			BandwidthBps: 50_000_000 + rng.Int63n(10_000_000_000),
			RTT:          simtime.PS(rng.Int63n(int64(50 * simtime.Millisecond))),
		},
		Queue: simtime.PS(rng.Int63n(int64(200 * simtime.Millisecond))),
	}
}

// Property 1: with the cloud tier absent, Placement degenerates exactly
// to the paper's 2-way gate on the edge tier's parameters (Equation 1
// plus the queueing delay, the reference ProfitableQueued) — the 3-way
// gate is a strict generalization of it.
func TestPlacementDegeneratesToProfitableQueued(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		edge := randTier(rng)
		tm := simtime.PS(1 + rng.Int63n(int64(2*simtime.Second)))
		mem := rng.Int63n(64 << 20)
		choice, est := Placement(tm, mem, edge, TierOption{})
		want2way := refProfitableQueued(edge.P, tm, mem, edge.Queue)
		if (choice == PlaceEdge) != want2way {
			t.Fatalf("case %d: Placement = %v, ProfitableQueued = %v (tm=%v mem=%d edge=%+v)",
				i, choice, want2way, tm, mem, edge)
		}
		if choice == PlaceCloud {
			t.Fatalf("case %d: picked absent cloud tier", i)
		}
		if choice == PlaceEdge {
			if want := edge.P.RemoteTime(tm, mem, edge.Queue); est != want {
				t.Fatalf("case %d: est = %v, want RemoteTime %v", i, est, want)
			}
		} else if est != tm {
			t.Fatalf("case %d: local est = %v, want tm %v", i, est, tm)
		}
	}
}

// Property 2: Placement is monotone in queue delay per tier — growing a
// tier's queue never makes that tier *more* attractive: the estimated
// completion never improves, and a tier that lost at queue q still
// loses at queue q' > q.
func TestPlacementMonotoneInQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		edge, cloud := randTier(rng), randTier(rng)
		tm := simtime.PS(1 + rng.Int63n(int64(2*simtime.Second)))
		mem := rng.Int63n(64 << 20)
		choice, est := Placement(tm, mem, edge, cloud)

		bump := simtime.PS(1 + rng.Int63n(int64(100*simtime.Millisecond)))
		for _, tier := range []PlacementChoice{PlaceEdge, PlaceCloud} {
			e2, c2 := edge, cloud
			if tier == PlaceEdge {
				e2.Queue += bump
			} else {
				c2.Queue += bump
			}
			choice2, est2 := Placement(tm, mem, e2, c2)
			if est2 < est {
				t.Fatalf("case %d: bumping %v queue improved estimate %v -> %v", i, tier, est, est2)
			}
			if choice != tier && choice2 == tier {
				t.Fatalf("case %d: %v lost at queue %v but won after +%v", i, tier, est, bump)
			}
		}
	}
}

// Property 3: Placement never picks a remote tier whose RemoteTime
// meets or exceeds local tm — the returned estimate is always <= tm,
// with equality only for PlaceLocal (remote must strictly win).
func TestPlacementNeverWorseThanLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		edge, cloud := randTier(rng), randTier(rng)
		// Randomly knock out tiers to cover all availability shapes.
		edge.OK = rng.Intn(4) != 0
		cloud.OK = rng.Intn(4) != 0
		tm := simtime.PS(1 + rng.Int63n(int64(2*simtime.Second)))
		mem := rng.Int63n(64 << 20)
		choice, est := Placement(tm, mem, edge, cloud)
		switch choice {
		case PlaceLocal:
			if est != tm {
				t.Fatalf("case %d: local est %v != tm %v", i, est, tm)
			}
		case PlaceEdge:
			if !edge.OK {
				t.Fatalf("case %d: picked unavailable edge", i)
			}
			if est >= tm || est != edge.P.RemoteTime(tm, mem, edge.Queue) {
				t.Fatalf("case %d: edge est %v vs tm %v", i, est, tm)
			}
		case PlaceCloud:
			if !cloud.OK {
				t.Fatalf("case %d: picked unavailable cloud", i)
			}
			if est >= tm || est != cloud.P.RemoteTime(tm, mem, cloud.Queue) {
				t.Fatalf("case %d: cloud est %v vs tm %v", i, est, tm)
			}
		}
	}
}

// Tie preference: equal estimates resolve local > edge > cloud.
func TestPlacementTieBreaks(t *testing.T) {
	// Zero-cost, infinitely-fast tiers with R<=0 mean exec = tm, so every
	// option estimates exactly tm: local must win the 3-way tie.
	free := TierOption{OK: true, P: Params{R: 0, BandwidthBps: 0, RTT: 0}}
	tm := simtime.FromSeconds(1)
	if choice, _ := Placement(tm, 1<<20, free, free); choice != PlaceLocal {
		t.Fatalf("3-way tie: got %v, want local", choice)
	}
	// Identical strictly-winning tiers: edge beats cloud.
	win := TierOption{OK: true, P: Params{R: 4, BandwidthBps: 1_000_000_000}}
	choice, est := Placement(tm, 1<<20, win, win)
	if choice != PlaceEdge {
		t.Fatalf("edge/cloud tie: got %v, want edge", choice)
	}
	if want := win.P.RemoteTime(tm, 1<<20, 0); est != want {
		t.Fatalf("tie est = %v, want %v", est, want)
	}
}

// PlacementMargin prices the queue signal as ProfitableQueued with the
// margin-scaled queue: margin m on queue q behaves as queue q*m.
func TestPlacementMarginScalesQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1000; i++ {
		edge, cloud := randTier(rng), randTier(rng)
		tm := simtime.PS(1 + rng.Int63n(int64(2*simtime.Second)))
		mem := rng.Int63n(64 << 20)
		margin := 1 + 2*rng.Float64()

		scaled := func(o TierOption) TierOption {
			o.Queue = simtime.PS(float64(o.Queue) * margin)
			return o
		}
		c1, e1 := PlacementMargin(tm, mem, edge, cloud, margin)
		c2, e2 := Placement(tm, mem, scaled(edge), scaled(cloud))
		if c1 != c2 || e1 != e2 {
			t.Fatalf("case %d: margin form (%v,%v) != scaled form (%v,%v)", i, c1, e1, c2, e2)
		}
	}
}
