package fleet

import (
	"fmt"

	"repro/internal/simtime"
)

// Policy names a dispatcher load-balancing policy.
type Policy string

const (
	// Random routes each request to a uniformly random server.
	Random Policy = "random"
	// RoundRobin cycles through the pool in order.
	RoundRobin Policy = "round-robin"
	// LeastLoaded picks the server with the least outstanding work per
	// slot (queue depth weighted by service time), ignoring the request
	// itself and the client's link.
	LeastLoaded Policy = "least-loaded"
	// EstAware picks the server minimizing the *estimated remote
	// completion time of this request*: transfer over the client's own
	// link, the server's current queueing delay, and execution at that
	// server's speed — Equation 1 extended with live load
	// (estimate.Params.RemoteTime).
	EstAware Policy = "est-aware"
)

// Policies lists every dispatch policy, in comparison order.
func Policies() []Policy { return []Policy{Random, RoundRobin, LeastLoaded, EstAware} }

// ParsePolicy resolves a policy name.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if string(p) == s {
			return p, nil
		}
	}
	return "", fmt.Errorf("fleet: unknown policy %q (want random, round-robin, least-loaded or est-aware)", s)
}

// dispatcher routes offload requests to servers under one policy.
type dispatcher struct {
	policy Policy
	rng    rng // the random policy's private stream
	rr     int // round-robin cursor
}

// pickAmong chooses the server, among the candidate index set, for a
// request a client decides to offload at instant now: tm is the task's
// mobile execution time, up/down the transfer times over this client's
// path to that set. It returns the server index and the estimated
// queueing delay there (the load signal the gate charges). The decision
// core runs one pick per tier and lets the placement gate arbitrate
// between the winners. Crashed and draining servers are out of rotation
// for every policy; with nobody up, it returns -1.
func (d *dispatcher) pickAmong(servers []*server, candidates []int, now simtime.PS, tm simtime.PS, up, down simtime.PS) (int, simtime.PS) {
	alive := make([]int, 0, len(candidates))
	for _, i := range candidates {
		if !servers[i].down {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return -1, 0
	}
	switch d.policy {
	case Random:
		i := alive[d.rng.intn(len(alive))]
		return i, servers[i].estWait(now)
	case RoundRobin:
		i := alive[d.rr%len(alive)]
		d.rr++
		return i, servers[i].estWait(now)
	case LeastLoaded:
		best, bestWait := alive[0], servers[alive[0]].estWait(now)
		for _, i := range alive[1:] {
			if w := servers[i].estWait(now); w < bestWait {
				best, bestWait = i, w
			}
		}
		return best, bestWait
	default: // EstAware
		best := alive[0]
		bestWait := servers[best].estWait(now)
		bestTotal := up + bestWait + servers[best].execTime(tm) + down
		for _, i := range alive[1:] {
			w := servers[i].estWait(now)
			total := up + w + servers[i].execTime(tm) + down
			if total < bestTotal {
				best, bestWait, bestTotal = i, w, total
			}
		}
		return best, bestWait
	}
}
