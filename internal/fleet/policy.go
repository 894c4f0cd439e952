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

// pickAmong chooses the server, among the candidate set ix indexes, for a
// request a client decides to offload at instant now: tm is the task's
// mobile execution time, up/down the transfer times over this client's
// path to that set. It returns the server index and the estimated
// queueing delay there (the load signal the gate charges). The decision
// core runs one pick per tier and lets the placement gate arbitrate
// between the winners. Crashed and draining servers are out of rotation
// for every policy; with nobody up, it returns -1. A pick allocates
// nothing: it runs once per tier per request.
func (d *dispatcher) pickAmong(ix *loadIndex, now simtime.PS, tm simtime.PS, up, down simtime.PS) (int, simtime.PS) {
	switch d.policy {
	case LeastLoaded:
		// The est-aware pick blind to the request itself: with no transfer
		// and no execution term the estimate is the queueing delay alone.
		return ix.pick(now, 0, 0)
	case EstAware:
		return ix.pick(now, tm, up+down)
	}
	// Random and round-robin take the k-th live candidate: count, draw
	// (one rng / cursor step per pick, and none when nobody is up), index.
	alive := 0
	for _, s := range ix.servers {
		if !s.down {
			alive++
		}
	}
	if alive == 0 {
		return -1, 0
	}
	var k int
	if d.policy == Random {
		k = d.rng.intn(alive)
	} else {
		k = d.rr % alive
		d.rr++
	}
	for p, s := range ix.servers {
		if s.down {
			continue
		}
		if k == 0 {
			return ix.cand[p], s.estWait(now)
		}
		k--
	}
	panic("fleet: live candidate count changed under the pick")
}
