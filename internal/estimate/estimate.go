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
	"math"

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
	tc := p.RTT * simtime.PS(invocations)
	if p.BandwidthBps > 0 {
		tc += simtime.FromSeconds(2 * float64(memBytes) * 8 / float64(p.BandwidthBps) * float64(invocations))
	}
	return tc
}

// IdealGain returns Tm*(1-1/R): the gain with free communication.
func (p Params) IdealGain(tm simtime.PS) simtime.PS {
	if p.R <= 0 {
		return 0
	}
	return simtime.PS(float64(tm) * (1 - 1/p.R))
}

// Task is one offload target with the profile's per-invocation prediction
// of its Equation-1 inputs: mobile execution time Tm and memory usage M.
type Task struct {
	TaskID            int
	Name              string
	TimePerInvocation simtime.PS
	MemBytes          int64
}

// Option is one way to run a task, priced as its completion time from the
// decision: moving state, execution and queueing.
type Option struct{ Comm, Exec, Queue simtime.PS }

// unavailable is an option that cannot be taken (a tier with no live
// server, a server that cannot finish): it costs forever and never wins.
var unavailable = Option{Exec: math.MaxInt64}

func (o Option) total() simtime.PS { return o.Comm + o.Exec + o.Queue }

// Cheapest is Equation 1's verdict: the index and estimated total of the
// cheapest of first (index 0) and rest. A later option must strictly beat
// every earlier one, so callers list their options in tie order — local
// before remote, the nearer tier before the farther.
func Cheapest(first Option, rest ...Option) (int, simtime.PS) {
	best, total := 0, first.total()
	for i, o := range rest {
		if t := o.total(); t < total {
			best, total = i+1, t
		}
	}
	return best, total
}

// exec is Equation 1's Tm/R: the time a server R times faster than the
// mobile takes for mobile work tm (tm itself when R is unknown).
func (p Params) exec(tm simtime.PS) simtime.PS {
	if p.R > 0 {
		return simtime.PS(float64(tm) / p.R)
	}
	return tm
}

// RemoteTime is the remote option's total, one invocation's end-to-end
// completion time: Equation 1's two memory transfers and Tm/R, plus the
// queueing delay a loaded server charges. With queue = 0 it is the remote
// side of Equation 1 (RemoteTime < Tm iff Evaluate's Tg > 0), so the
// session's gate and the fleet's contention-aware gate agree on an idle
// fleet.
func (p Params) RemoteTime(tm simtime.PS, memBytes int64, queue simtime.PS) simtime.PS {
	return p.CommTime(memBytes, 1) + p.exec(tm) + queue
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

// option prices the tier's remote option, the terms of RemoteTime with the
// margin-scaled queue signal.
func (o TierOption) option(tm simtime.PS, memBytes int64, margin float64) Option {
	q := o.Queue
	if margin != 1 {
		q = simtime.PS(float64(q) * margin)
	}
	return Option{Comm: o.P.CommTime(memBytes, 1), Exec: o.P.exec(tm), Queue: q}
}

// Placement is PlacementMargin with margin 1.
func Placement(tm simtime.PS, memBytes int64, edge, cloud TierOption) (PlacementChoice, simtime.PS) {
	return PlacementMargin(tm, memBytes, edge, cloud, 1)
}

// PlacementMargin is the 3-way placement verdict: the cheapest of local
// execution and each available tier's remote option, with its estimate:
//
//	T_local = tm
//	T_edge  = CommTime_edge(M,1) + tm/R_edge  + Q_edge*margin
//	T_cloud = CommTime_cloud(M,1) + tm/R_cloud + Q_cloud*margin
//
// Local wins ties, and edge wins ties against cloud. With the cloud option
// absent it is the paper's binary gate, Equation 1 plus the edge tier's
// queueing delay. The margin is a confidence margin on that delay: the
// load signal a dispatcher exposes is stale by one transfer time and
// shared by every concurrently-deciding client, so it systematically
// underestimates the delay the request will actually meet under bursts
// (the join-shortest-queue herding bias). margin > 1 prices that bias in.
// The fleet's adaptive admission controller raises its per-server margin
// when sheds and deadline overruns show the raw estimate was trusted too
// far, and decays it back when the pool runs clean.
func PlacementMargin(tm simtime.PS, memBytes int64, edge, cloud TierOption, margin float64) (PlacementChoice, simtime.PS) {
	e, c := unavailable, unavailable
	if edge.OK {
		e = edge.option(tm, memBytes, margin)
	}
	if cloud.OK {
		c = cloud.option(tm, memBytes, margin)
	}
	i, t := Cheapest(Option{Exec: tm}, e, c)
	return PlacementChoice(i), t
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

// MigrationChoice is the 3-way mid-flight verdict, its values in tie order.
type MigrationChoice int

const (
	// Fallback abandons the offload and re-executes locally on the mobile.
	Fallback MigrationChoice = iota
	// Finish rides out the degradation on the current server.
	Finish
	// Migrate ships the checkpoint to a healthy server and resumes there.
	Migrate
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
//	T_fallback = remaining (mobile re-execution of what's left)
//	T_finish   = (remaining/R) * slowFactor
//	T_migrate  = cost + remaining/R
//
// A dead or draining server cannot Finish, nor can one whose T_finish is
// past the clock's range.
func (p Params) MigrationDecision(remaining simtime.PS, slowFactor float64, cost simtime.PS, canFinish bool) MigrationChoice {
	exec := p.exec(remaining)
	finish := unavailable
	if t := float64(exec) * slowFactor; canFinish && slowFactor > 0 && t < math.MaxInt64 {
		finish = Option{Exec: simtime.PS(t)}
	}
	i, _ := Cheapest(Option{Exec: remaining}, finish, Option{Comm: cost, Exec: exec})
	return MigrationChoice(i)
}
