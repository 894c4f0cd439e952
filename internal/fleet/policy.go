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
// for every policy; with nobody up, it returns -1. A pick allocates
// nothing: it runs once per tier per request over the whole tier.
func (d *dispatcher) pickAmong(servers []*server, candidates []int, now simtime.PS, tm simtime.PS, up, down simtime.PS) (int, simtime.PS) {
	switch d.policy {
	case LeastLoaded:
		// The est-aware scan blind to the request itself: with no transfer
		// and no execution term the estimate is the queueing delay alone.
		return scan(servers, candidates, now, 0, 0)
	case EstAware:
		return scan(servers, candidates, now, tm, up+down)
	}
	// Random and round-robin take the k-th live candidate: count, draw
	// (one rng / cursor step per pick, and none when nobody is up), index.
	alive := 0
	for _, i := range candidates {
		if !servers[i].down {
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
	for _, i := range candidates {
		if servers[i].down {
			continue
		}
		if k == 0 {
			return i, servers[i].estWait(now)
		}
		k--
	}
	panic("fleet: live candidate count changed under the pick")
}

// scan returns the live candidate minimizing the estimated remote
// completion time transfer + estWait + execTime(tm), and its estWait; ties
// go to the lowest candidate position (strict <). It is exact against
// computing every candidate's total, but per candidate it costs a multiply
// and a compare where that costs an integer and a float divide:
//
//   - execTime is a pure function of (tm, R), so it is computed once per
//     distinct R the scan meets (execMemo), not once per server.
//   - With w = left/Slots the candidate's queueing delay, it beats the
//     running best iff w < thr, where thr = bestTotal - transfer - exec.
//     Go's integer divide truncates — the floor for left >= 0, the
//     ceiling below — and either way left >= thr*Slots implies w >= thr
//     for integer thr and Slots > 0: such a candidate cannot lead and is
//     dropped on the multiply. One that survives pays the divide and the
//     exact strict compare, so the prune can only save work, never change
//     the answer; for left >= 0 (always, while running jobs have
//     finish >= now) it is also tight, and the divide runs only for a
//     candidate that takes the lead — O(log n) of n in expectation.
func scan(servers []*server, candidates []int, now, tm, transfer simtime.PS) (int, simtime.PS) {
	best, bestWait, bestTotal := -1, simtime.PS(0), simtime.PS(0)
	memo := execMemo{tm: tm}
	for _, i := range candidates {
		s := servers[i]
		if s.down {
			continue
		}
		exec := memo.at(s.spec.R)
		left := s.outstanding(now)
		slots := simtime.PS(s.spec.Slots)
		if best >= 0 && left >= (bestTotal-transfer-exec)*slots {
			continue
		}
		w := left / slots
		if total := transfer + w + exec; best < 0 || total < bestTotal {
			best, bestWait, bestTotal = i, w, total
		}
	}
	return best, bestWait
}

// execMemo caches execTime(tm, R) for the last two distinct speeds one
// candidate walk met. Two entries cover the pools the constructors build
// — TieredServers lays each tier out as one run of equal specs,
// DefaultServers alternates two speeds — and any other pool only misses
// more often: the memo is a pure-function cache, never an approximation.
type execMemo struct {
	tm   simtime.PS
	r    [2]float64 // zero is no valid speed (Validate), so empty entries never hit
	exec [2]simtime.PS
}

func (c *execMemo) at(r float64) simtime.PS {
	if r == c.r[0] {
		return c.exec[0]
	}
	if r == c.r[1] {
		return c.exec[1]
	}
	c.r[1], c.exec[1] = c.r[0], c.exec[0]
	c.r[0], c.exec[0] = r, execTime(c.tm, r)
	return c.exec[0]
}
