// Package estimate implements the paper's performance estimation,
// Equation 1:
//
//	Tg = (Tm - Ts) - Tc = Tm*(1 - 1/R) - 2*(M/BW)*Ninvo
//
// where Tm is the task's mobile execution time, R the server/mobile
// performance ratio, M the task's memory usage, BW the network bandwidth and
// Ninvo the invocation count. The *static* estimator (Section 3.1) applies
// it to profile data to pick compile-time offload targets; the *dynamic*
// estimator (Section 4) re-evaluates it per invocation with run-time values,
// which is how gzip-class tasks avoid offloading over a slow network
// (the starred entries of Figure 6).
package estimate

import (
	"repro/internal/simtime"
)

// Params holds the environment the estimator assumes.
type Params struct {
	// R is the server/mobile performance ratio (Table 1 measures ~5.8; the
	// paper's Table 3 example uses 5).
	R float64
	// BandwidthBps is the network bandwidth in bits per second.
	BandwidthBps int64
	// RTT is the fixed per-invocation communication overhead (round-trip
	// latency plus message framing). Equation 1 as printed is
	// bandwidth-only; without this term a task that touches no memory
	// at all would look free to offload at any invocation count.
	RTT simtime.PS
}

// DeadlineSlack multiplies a predicted duration into how long its waiter
// holds on before concluding the other side is gone: the offload runtime's
// per-RPC and per-task deadlines and the fleet client's dispatch deadline
// all scale the estimator's own prediction by it.
const DeadlineSlack = 3

// CommTime returns Tc for moving memBytes twice (mobile->server and back),
// invocations times.
func (p Params) CommTime(memBytes int64, invocations int) simtime.PS {
	rtt := p.RTT * simtime.PS(invocations)
	if p.BandwidthBps <= 0 {
		return rtt
	}
	secs := 2 * float64(memBytes) * 8 / float64(p.BandwidthBps) * float64(invocations)
	return simtime.FromSeconds(secs) + rtt
}

// IdealGain returns Tm*(1-1/R): the gain with free communication.
func (p Params) IdealGain(tm simtime.PS) simtime.PS {
	if p.R <= 0 {
		return 0
	}
	return simtime.PS(float64(tm) * (1 - 1/p.R))
}

// RemoteTime estimates the end-to-end remote completion time of one
// invocation: the two memory transfers of Equation 1, the server-side
// execution Tm/R, and the queueing delay a loaded server currently
// charges. With queue = 0 it is exactly the remote side of Equation 1
// (RemoteTime < Tm iff Evaluate's Tg > 0), so the single-server gate and the
// fleet's contention-aware gate agree on an idle fleet.
func (p Params) RemoteTime(tm simtime.PS, memBytes int64, queue simtime.PS) simtime.PS {
	exec := tm
	if p.R > 0 {
		exec = simtime.PS(float64(tm) / p.R)
	}
	return p.CommTime(memBytes, 1) + exec + queue
}

// ProfitableQueued generalizes Equation 1 to shared servers: offloading
// wins only if it still beats local execution after the dispatcher's
// current queueing delay is charged on top of communication.
func (p Params) ProfitableQueued(tm simtime.PS, memBytes int64, queue simtime.PS) bool {
	return p.RemoteTime(tm, memBytes, queue) < tm
}

// Estimate is the per-candidate result the target selector records
// (Table 3's right-hand columns).
type Estimate struct {
	Tideal simtime.PS // ideal gain
	Tc     simtime.PS // communication cost
	Tg     simtime.PS // net gain
}

// Evaluate fills an Estimate for one candidate: Tg is Equation 1, and the
// task is profitable to offload when it is positive.
func (p Params) Evaluate(tm simtime.PS, memBytes int64, invocations int) Estimate {
	ideal := p.IdealGain(tm)
	tc := p.CommTime(memBytes, invocations)
	return Estimate{Tideal: ideal, Tc: tc, Tg: ideal - tc}
}

// PlacementChoice is the 3-way placement verdict at dispatch time:
// run locally, offload to the nearby edge tier, or offload to the
// distant cloud tier.
type PlacementChoice int

const (
	// PlaceLocal runs the task on the mobile.
	PlaceLocal PlacementChoice = iota
	// PlaceEdge offloads over the access link to the edge pool.
	PlaceEdge
	// PlaceCloud offloads over access link + backhaul to the cloud pool.
	PlaceCloud
)

func (c PlacementChoice) String() string {
	switch c {
	case PlaceLocal:
		return "local"
	case PlaceEdge:
		return "edge"
	case PlaceCloud:
		return "cloud"
	}
	return "unknown"
}

// TierOption describes one remote tier as a placement candidate: the
// tier's effective network+compute parameters (for the cloud tier the
// Params are the serial combination of access link and backhaul) and
// the live queueing delay of the best server in that tier's pool.
// OK = false removes the tier from consideration (no pool configured,
// or every server down).
type TierOption struct {
	OK    bool
	P     Params
	Queue simtime.PS
}

// remoteTime scores the option with the margin-scaled queue signal.
func (o TierOption) remoteTime(tm simtime.PS, memBytes int64, margin float64) simtime.PS {
	q := o.Queue
	if margin != 1 {
		q = simtime.PS(float64(q) * margin)
	}
	return o.P.RemoteTime(tm, memBytes, q)
}

// Placement is the 3-way generalization of ProfitableQueued: it scores
// local execution (tm) against each available tier's RemoteTime — which
// already charges that tier's communication cost, compute ratio and
// live queue delay — and returns the choice minimizing estimated
// completion, together with that estimate:
//
//	T_local = tm
//	T_edge  = CommTime_edge(M,1) + tm/R_edge  + Q_edge
//	T_cloud = CommTime_cloud(M,1) + tm/R_cloud + Q_cloud
//
// A remote tier must strictly beat every cheaper alternative: local
// wins ties (matching ProfitableQueued's strict inequality), and edge
// wins ties against cloud (prefer the nearer tier when estimates are
// equal). With the cloud option absent, Placement degenerates exactly
// to ProfitableQueued on the edge tier's parameters.
func Placement(tm simtime.PS, memBytes int64, edge, cloud TierOption) (PlacementChoice, simtime.PS) {
	return PlacementMargin(tm, memBytes, edge, cloud, 1)
}

// PlacementMargin is Placement with a confidence margin on each tier's
// queueing-delay signal: the charged delay is Queue*margin. The load
// signal a dispatcher exposes is stale by one transfer time and shared by
// every concurrently-deciding client, so it systematically underestimates
// the delay the request will actually meet under bursts (the
// join-shortest-queue herding bias). margin > 1 prices that bias in;
// margin == 1 is exactly Placement. The fleet's adaptive admission
// controller raises its per-server margin when sheds and deadline overruns
// show the raw estimate was trusted too far, and decays it back when the
// pool runs clean.
func PlacementMargin(tm simtime.PS, memBytes int64, edge, cloud TierOption, margin float64) (PlacementChoice, simtime.PS) {
	best, choice := tm, PlaceLocal
	if edge.OK {
		if t := edge.remoteTime(tm, memBytes, margin); t < best {
			best, choice = t, PlaceEdge
		}
	}
	if cloud.OK {
		if t := cloud.remoteTime(tm, memBytes, margin); t < best {
			best, choice = t, PlaceCloud
		}
	}
	return choice, best
}

// MigrationCost estimates the time to move an in-flight offload to
// another server: ship the checkpoint payload one way over the
// server-to-server backhaul plus one round trip of handshaking. This is
// the new term migration adds to Equation 1 — unlike CommTime it moves
// only the mutated private pages, once, over a link far faster than the
// client radio.
func (p Params) MigrationCost(checkpointBytes int64) simtime.PS {
	if p.BandwidthBps <= 0 {
		return p.RTT
	}
	secs := float64(checkpointBytes) * 8 / float64(p.BandwidthBps)
	return simtime.FromSeconds(secs) + p.RTT
}

// MigrationChoice is the 3-way verdict for a degraded in-flight offload.
type MigrationChoice int

const (
	// Finish rides out the degradation on the current server.
	Finish MigrationChoice = iota
	// Migrate ships the checkpoint to a healthy server and resumes there.
	Migrate
	// Fallback abandons the offload and re-executes locally on the mobile.
	Fallback
)

func (c MigrationChoice) String() string {
	switch c {
	case Finish:
		return "finish"
	case Migrate:
		return "migrate"
	case Fallback:
		return "fallback"
	}
	return "unknown"
}

// MigrationDecision extends Equation 1's two-way gate to the mid-flight
// 3-way choice. remaining is the task's remaining work in mobile time;
// slowFactor is the current server's compute-time inflation (1 = healthy,
// +Inf or <= 0 = dead); cost is the MigrationCost of shipping the
// checkpoint to the spare the caller holds (without one the runtime falls
// back without asking). It returns the choice minimizing estimated
// completion:
//
//	T_finish   = (remaining/R) * slowFactor
//	T_migrate  = cost + remaining/R
//	T_fallback = remaining (mobile re-execution of what's left)
//
// A dead or draining server cannot Finish.
func (p Params) MigrationDecision(remaining simtime.PS, slowFactor float64, cost simtime.PS, canFinish bool) MigrationChoice {
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
