package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/simtime"
)

// The sharded parallel engine.
//
// Clients partition into contiguous shards, each owning a private ready
// queue over its clients' ready events. Execution alternates between two
// phases under a conservative time-window barrier on the shared simtime
// clock:
//
//   - parallel phase: every shard drains its mailbox of completions
//     (doneMsg), then processes its ready events up to the window
//     horizon, appending the resulting decision intents to its outbox in
//     (t, lane) order;
//   - serial phase: the coordinator merges the sorted outboxes with its
//     own server-lane event queue and feeds the shared machine in exact
//     global key order, mailing completions back to the owning shards.
//
// The parallel phase is help-first: the coordinator claims and steps
// shards itself while nShards-1 helper goroutines, poked without
// blocking, claim what it has not reached. A window with little client
// work is finished before any helper wakes; the coordinator parks only
// when a helper took the window's last step.
//
// The horizon is min-pending + lookahead, where the lookahead is the
// cheapest possible chain from any processed event back to a client's
// next ready event (Config.lookahead: scaled think floor plus the cheaper
// of a local re-execution and a reply leg). No message generated inside a
// window can therefore target an instant before the window's end, which
// is the conservative-synchronization argument: every shard sees every
// event it must process before it crosses the horizon, and the serial
// phase replays the sequential engine's total order exactly. Client-side
// work is order-free across clients (clientState is private per client),
// so the engines are bit-identical for every shard count — enforced by
// tests, not just argued.
type shard struct {
	id    int
	lo    int32 // first client id owned (inclusive)
	hi    int32 // one past the last client id owned
	q     *readyQueue
	inbox []doneMsg // completions mailed by the coordinator, drained at phase start
	out   []intent  // decision intents for the coordinator, naturally key-ordered
	st    *Stats
	maxT  simtime.PS
}

// step runs one parallel phase: deliver pending completions, then process
// every ready event before the horizon.
func (sh *shard) step(cfg *Config, clients []clientState, horizon simtime.PS) {
	for _, msg := range sh.inbox {
		sh.q.push(applyDone(cfg, &clients[msg.ci], msg, sh.st), msg.ci)
	}
	sh.inbox = sh.inbox[:0]
	for !sh.q.empty() && sh.q.top().t < horizon {
		ev := sh.q.pop()
		if ev.t > sh.maxT {
			sh.maxT = ev.t
		}
		if in, ok := issueReady(cfg, &clients[ev.lane], ev.lane, ev.t, sh.st); ok {
			sh.out = append(sh.out, in)
		}
	}
}

// shardLo is the first client of shard s when clients split into nShards
// contiguous, near-equal ranges (nShards <= clients, so none is empty).
func shardLo(s, clients, nShards int) int32 {
	return int32(int64(s) * int64(clients) / int64(nShards))
}

// shardOf inverts shardLo: the owner of client ci is the last shard whose
// first client is not past it. Arithmetic instead of a per-client table,
// which at a hundred thousand clients is a cache miss per completion.
func shardOf(ci int32, clients, nShards int) int {
	return int(((int64(ci)+1)*int64(nShards) - 1) / int64(clients))
}

func runSharded(cfg Config) (*Result, error) {
	nShards := cfg.Shards
	if nShards > cfg.Clients {
		nShards = cfg.Clients
	}
	clients, links, err := buildClients(&cfg)
	if err != nil {
		return nil, err
	}

	shards := make([]*shard, nShards)
	for s := range shards {
		lo, hi := shardLo(s, cfg.Clients, nShards), shardLo(s+1, cfg.Clients, nShards)
		sh := &shard{id: s, lo: lo, hi: hi, q: newReadyQueue(int(hi - lo)),
			st: NewStats(int(hi-lo) * cfg.RequestsPerClient)}
		for ci := lo; ci < hi; ci++ {
			// Stagger the first wave by one think time per client — the
			// same draw, from the same per-entity stream, as sequential.
			sh.q.push(nextThink(&cfg, &clients[ci], 0), ci)
		}
		shards[s] = sh
	}

	nc := int32(cfg.Clients)
	cst := NewStats(0) // server-side counters only: completions are recorded by the shards
	m := newMachine(&cfg, links, cst)
	cq := newSchedQueue(nc, len(cfg.Servers))
	m.sched = func(t simtime.PS, kind uint8, si int32, j *job) {
		cq.sched(t, kind, nc+si, si, j)
	}
	m.emit = func(msg doneMsg) {
		sh := shards[shardOf(msg.ci, cfg.Clients, nShards)]
		sh.inbox = append(sh.inbox, msg)
	}
	m.scheduleFaults()

	la := cfg.lookahead()
	thinkFloor := cfg.thinkFloor()

	// A window's steps are handed out by claim and counted down by left.
	// The atomics order every access to shard state: a step's writes come
	// before its decrement, the coordinator reads the shards only after the
	// last decrement, and it writes horizon and the inboxes only before the
	// stores that open the next window. A helper woken late finds claim
	// spent and goes back to sleep, or helps the window that is open.
	var (
		horizon     simtime.PS
		claim, left atomic.Int32
	)
	// stepClaimed steps shards until none is left to claim and reports
	// whether it took the window's last step.
	stepClaimed := func() bool {
		for i := claim.Add(1) - 1; int(i) < nShards; i = claim.Add(1) - 1 {
			shards[i].step(&cfg, clients, horizon)
			if left.Add(-1) == 0 {
				return true
			}
		}
		return false
	}
	finished := make(chan struct{}, 1)
	pokes := make([]chan struct{}, nShards-1)
	var helpers sync.WaitGroup
	helpers.Add(len(pokes))
	for i := range pokes {
		pokes[i] = make(chan struct{}, 1)
		go func(poke <-chan struct{}) {
			defer helpers.Done()
			for range poke {
				if stepClaimed() {
					finished <- struct{}{}
				}
			}
		}(pokes[i])
	}
	defer func() {
		for _, p := range pokes {
			close(p)
		}
		helpers.Wait()
	}()

	var coordMax simtime.PS
	var windows, waits int
	idx := make([]int, nShards) // each outbox's merge cursor, reset per window
	for {
		// The earliest pending instant anywhere: shard queues, the
		// coordinator queue, and undelivered completions (whose ready
		// events cannot fire before done + the scaled think floor).
		tmin, idle := maxPS, cq.empty()
		if !idle {
			tmin = cq.top().t
		}
		for _, sh := range shards {
			if !sh.q.empty() {
				idle = false
				if t := sh.q.top().t; t < tmin {
					tmin = t
				}
			}
			for i := range sh.inbox {
				idle = false
				if b := sh.inbox[i].done + thinkFloor; b < tmin {
					tmin = b
				}
			}
		}
		if idle {
			break
		}
		horizon = tmin + la
		left.Store(int32(nShards))
		claim.Store(0)
		for _, p := range pokes {
			select {
			case p <- struct{}{}:
			default:
			}
		}
		windows++
		if !stepClaimed() {
			<-finished
			waits++
		}

		// Serial phase: feed the machine the union of shard intents and
		// coordinator events in global (t, lane, seq) order. Outboxes are
		// already sorted (shards pop in key order); an intent's implicit
		// lane is its client id, which sorts before every server lane, so
		// at equal instants intents win — exactly as ready events beat
		// server events in the sequential heap.
		clear(idx)
		for {
			bi := -1
			var bt simtime.PS
			var bc int32
			for s, sh := range shards {
				if idx[s] >= len(sh.out) {
					continue
				}
				in := &sh.out[idx[s]]
				if bi < 0 || in.t < bt || (in.t == bt && in.ci < bc) {
					bi, bt, bc = s, in.t, in.ci
				}
			}
			haveEv := !cq.empty() && cq.top().t < horizon
			if bi < 0 && !haveEv {
				break
			}
			if bi >= 0 && (!haveEv || bt <= cq.top().t) {
				in := shards[bi].out[idx[bi]]
				idx[bi]++
				if in.t > coordMax {
					coordMax = in.t
				}
				m.handleIntent(in)
				continue
			}
			ev := cq.pop()
			if ev.t > coordMax {
				coordMax = ev.t
			}
			m.handleServerEvent(ev)
		}
		for _, sh := range shards {
			sh.out = sh.out[:0]
		}
	}

	// Per-shard end-of-run invariants: a drained simulation must leave no
	// shard holding queued events, undelivered mail, or unissued requests
	// (the per-server reserved==0/busy==0 checks run in finishRun).
	total := NewStats(cfg.Clients * cfg.RequestsPerClient)
	total.Merge(cst)
	now := coordMax
	for s, sh := range shards {
		if !sh.q.empty() || len(sh.inbox) != 0 {
			return nil, fmt.Errorf("fleet: shard %d ended with %d queued events, %d undelivered completions",
				s, sh.q.len(), len(sh.inbox))
		}
		for ci := sh.lo; ci < sh.hi; ci++ {
			if clients[ci].remaining != 0 {
				return nil, fmt.Errorf("fleet: shard %d client %d ended holding %d unissued requests",
					s, ci, clients[ci].remaining)
			}
		}
		total.Merge(sh.st)
		if sh.maxT > now {
			now = sh.maxT
		}
	}
	res, err := m.finishRun(total, now)
	if err != nil {
		return nil, err
	}
	res.windows, res.waits = windows, waits
	return res, nil
}
