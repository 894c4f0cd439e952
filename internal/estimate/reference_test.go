package estimate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// The reference verdicts: Equation 1's communication time, each of its
// hand-written minimisations and Tm/R derivations as they stood before the
// one pick replaced them, kept verbatim so TestVerdictsMatchReference can
// hold the rewritten verdicts to them bit for bit.

// refCommTime is Params.CommTime.
func refCommTime(p Params, memBytes int64, invocations int) simtime.PS {
	rtt := p.RTT * simtime.PS(invocations)
	if p.BandwidthBps <= 0 {
		return rtt
	}
	secs := 2 * float64(memBytes) * 8 / float64(p.BandwidthBps) * float64(invocations)
	return simtime.FromSeconds(secs) + rtt
}

// refRemoteTime is Params.RemoteTime.
func refRemoteTime(p Params, tm simtime.PS, memBytes int64, queue simtime.PS) simtime.PS {
	exec := tm
	if p.R > 0 {
		exec = simtime.PS(float64(tm) / p.R)
	}
	return refCommTime(p, memBytes, 1) + exec + queue
}

// refProfitableQueued is the runtime gate, Params.ProfitableQueued.
func refProfitableQueued(p Params, tm simtime.PS, memBytes int64, queue simtime.PS) bool {
	return refRemoteTime(p, tm, memBytes, queue) < tm
}

// refTierRemoteTime is TierOption.remoteTime.
func refTierRemoteTime(o TierOption, tm simtime.PS, memBytes int64, margin float64) simtime.PS {
	q := o.Queue
	if margin != 1 {
		q = simtime.PS(float64(q) * margin)
	}
	return refRemoteTime(o.P, tm, memBytes, q)
}

// refPlacementMargin is PlacementMargin.
func refPlacementMargin(tm simtime.PS, memBytes int64, edge, cloud TierOption, margin float64) (PlacementChoice, simtime.PS) {
	best, choice := tm, PlaceLocal
	if edge.OK {
		if t := refTierRemoteTime(edge, tm, memBytes, margin); t < best {
			best, choice = t, PlaceEdge
		}
	}
	if cloud.OK {
		if t := refTierRemoteTime(cloud, tm, memBytes, margin); t < best {
			best, choice = t, PlaceCloud
		}
	}
	return choice, best
}

// refMigrationDecision is Params.MigrationDecision.
func refMigrationDecision(p Params, remaining simtime.PS, slowFactor float64, cost simtime.PS, canFinish bool) MigrationChoice {
	exec := remaining
	if p.R > 0 {
		exec = simtime.PS(float64(remaining) / p.R)
	}
	tFallback := remaining
	best, choice := tFallback, Fallback
	if canFinish && slowFactor > 0 {
		// Compared before the conversion, so a factor too large for the
		// clock loses to the alternatives instead of wrapping negative.
		if t := float64(exec) * slowFactor; t < float64(best) {
			best, choice = simtime.PS(t), Finish
		}
	}
	if t := cost + exec; t < best {
		choice = Migrate
	}
	return choice
}

// refOffloadDeadlineBase is what offrt's offloadDeadline scaled into the
// mobile's patience: server execution plus predicted communication.
func refOffloadDeadlineBase(est Params, tm simtime.PS, memBytes int64) simtime.PS {
	exec := simtime.PS(float64(tm) / est.R)
	comm := refCommTime(est, memBytes, 1)
	return exec + comm
}

// refFleetExecTime is the fleet's service time on a server of speed r.
func refFleetExecTime(tm simtime.PS, r float64) simtime.PS {
	return simtime.PS(float64(tm) / r)
}

// drawParams draws estimator parameters over the shapes the verdicts must
// agree on: a ratio that is sometimes zero or negative, a bandwidth that is
// sometimes zero, an RTT from zero to tens of milliseconds.
func drawParams(rng *rand.Rand) Params {
	p := Params{
		R:            0.5 + 15.5*rng.Float64(),
		BandwidthBps: 1_000_000 + rng.Int63n(10_000_000_000),
		RTT:          simtime.PS(rng.Int63n(int64(50 * simtime.Millisecond))),
	}
	switch rng.Intn(8) {
	case 0:
		p.R = 0
	case 1:
		p.R = -1 - rng.Float64()
	case 2:
		p.BandwidthBps = 0
	}
	return p
}

// drawTier draws a tier option that is absent one time in four.
func drawTier(rng *rand.Rand) TierOption {
	return TierOption{
		OK:    rng.Intn(4) != 0,
		P:     drawParams(rng),
		Queue: simtime.PS(rng.Int63n(int64(300 * simtime.Millisecond))),
	}
}

// drawSlowdown draws a server slowdown factor: healthy, dead (0, negative,
// +Inf), or anywhere from 1 to 1e9 on a log scale.
func drawSlowdown(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return -1
	case 2:
		return math.Inf(1)
	case 3:
		return 1
	}
	return math.Pow(10, 9*rng.Float64())
}

// TestVerdictsMatchReference is the seeded differential between every
// Equation-1 verdict and its reference formula above: the gate, the
// {local, edge, cloud} placement at margin 1 and above, the mid-flight
// {finish, migrate, fall back} choice, the communication time, the remote
// time the offload deadline scales, and the fleet's service time.
func TestVerdictsMatchReference(t *testing.T) {
	const draws = 4000
	rng := rand.New(rand.NewSource(41))
	drawTm := func() simtime.PS { return simtime.PS(rng.Int63n(int64(20 * simtime.Second))) }

	for i := 0; i < draws; i++ {
		p, tm, mem := drawParams(rng), drawTm(), rng.Int63n(256<<20)
		q := simtime.PS(0)
		if i%2 == 1 {
			q = simtime.PS(rng.Int63n(int64(5 * simtime.Second)))
		}
		got, _ := PlacementMargin(tm, mem, TierOption{OK: true, P: p, Queue: q}, TierOption{}, 1)
		if want := refProfitableQueued(p, tm, mem, q); (got == PlaceEdge) != want {
			t.Fatalf("gate %d: one-tier placement %v, reference ProfitableQueued %v (p=%+v tm=%v mem=%d q=%v)",
				i, got, want, p, tm, mem, q)
		}
		if inv := 1 + rng.Intn(40); p.CommTime(mem, inv) != refCommTime(p, mem, inv) {
			t.Fatalf("comm %d: CommTime %v, reference %v (p=%+v mem=%d inv=%d)", i, p.CommTime(mem, inv), refCommTime(p, mem, inv), p, mem, inv)
		}
		if got, want := p.RemoteTime(tm, mem, q), refRemoteTime(p, tm, mem, q); got != want {
			t.Fatalf("remote %d: RemoteTime %v, reference %v (p=%+v tm=%v mem=%d q=%v)", i, got, want, p, tm, mem, q)
		}
		if p.R > 0 {
			if got, want := p.RemoteTime(tm, mem, 0), refOffloadDeadlineBase(p, tm, mem); got != want {
				t.Fatalf("deadline %d: RemoteTime %v, reference %v (p=%+v tm=%v mem=%d)", i, got, want, p, tm, mem)
			}
			if got, want := (Params{R: p.R}).RemoteTime(tm, 0, 0), refFleetExecTime(tm, p.R); got != want {
				t.Fatalf("exec %d: RemoteTime %v, reference %v (R=%v tm=%v)", i, got, want, p.R, tm)
			}
		}
	}

	for i := 0; i < draws; i++ {
		edge, cloud, tm, mem := drawTier(rng), drawTier(rng), drawTm(), rng.Int63n(256<<20)
		margin := 1.0
		if i%2 == 1 {
			margin = 1 + 3*rng.Float64()
		}
		c, e := PlacementMargin(tm, mem, edge, cloud, margin)
		wc, we := refPlacementMargin(tm, mem, edge, cloud, margin)
		if c != wc || e != we {
			t.Fatalf("placement %d: (%v, %v), reference (%v, %v) (tm=%v mem=%d margin=%v edge=%+v cloud=%+v)",
				i, c, e, wc, we, tm, mem, margin, edge, cloud)
		}
		if margin == 1 {
			if c, e := Placement(tm, mem, edge, cloud); c != wc || e != we {
				t.Fatalf("placement %d: Placement (%v, %v), reference (%v, %v)", i, c, e, wc, we)
			}
		}
	}

	for i := 0; i < draws; i++ {
		p, slow, canFinish := drawParams(rng), drawSlowdown(rng), rng.Intn(3) != 0
		remaining := simtime.PS(rng.Int63n(int64(1000 * simtime.Second)))
		cost := simtime.PS(rng.Int63n(int64(remaining) + 1))
		if i%4 == 0 && p.R > 0 {
			// Force the migrate/fallback tie.
			cost = remaining - simtime.PS(float64(remaining)/p.R)
		}
		got := p.MigrationDecision(remaining, slow, cost, canFinish)
		if want := refMigrationDecision(p, remaining, slow, cost, canFinish); got != want {
			t.Fatalf("migration %d: %v, reference %v (p=%+v remaining=%v slow=%v cost=%v canFinish=%v)",
				i, got, want, p, remaining, slow, cost, canFinish)
		}
	}
}
