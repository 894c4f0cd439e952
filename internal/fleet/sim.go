package fleet

import (
	"math"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

// clientState is one simulated mobile device, in one 24-byte record: the
// instant of its pending ready event, its private stream, the requests it
// still owes and the index of its link profile. Client-side logic
// (workload draws from the client's private stream, link pricing,
// completion bookkeeping) touches no other client's state and no server
// state, so a client's draws depend only on its own stream and on the
// instants of its own events — never on how many other clients there are
// or what they did.
//
// at belongs to the ready queue, which stores and reads it while the
// client is pending (readyQueue). Keeping it in the record means the
// queue's bucket walk loads the line issueReady and applyDone touch next.
type clientState struct {
	at        simtime.PS
	rng       rng
	remaining int32
	prof      int32 // the client's link is profiles[prof]
}

// buildClients materializes the client population, in rm's client records,
// and the link profile table: client i uses profile i mod len
// (clientProfile), and clients on the same profile share one immutable Link
// instance (a private copy per client would, at a million clients, be real
// memory).
func buildClients(cfg *Config, rm *runMem) ([]clientState, []*netsim.Link, error) {
	profiles, err := linkProfiles(cfg)
	if err != nil {
		return nil, nil, err
	}
	clients := resize(rm.clients, cfg.Clients)
	for i := range clients {
		clients[i] = clientState{
			rng:       entityStream(cfg.Seed, uint64(i)),
			remaining: int32(cfg.RequestsPerClient),
			prof:      clientProfile(int32(i), len(profiles)),
		}
	}
	return clients, profiles, nil
}

// clientProfile is the index of client ci's link in a table of n profiles.
func clientProfile(ci int32, n int) int32 { return ci % int32(n) }

// nextThink draws the client's pause before its next request, issued at
// instant at. Under a diurnal workload the draw is scaled by the inverse
// of the load curve: peak hours shrink think times (more traffic), the
// trough stretches them.
func nextThink(cfg *Config, cs *clientState, at simtime.PS) simtime.PS {
	think := cs.rng.rangePS(cfg.Workload.ThinkMin, cfg.Workload.ThinkMax)
	if cfg.Workload.DiurnalAmp > 0 {
		think = simtime.PS(float64(think) / cfg.Workload.loadAt(at))
	}
	return think
}

// loadAt is the diurnal load factor at instant t: 1 + Amp*sin(2πt/Period),
// so the curve starts at the neutral crossing and peaks a quarter-period
// in.
func (w *WorkloadModel) loadAt(t simtime.PS) float64 {
	if w.DiurnalAmp <= 0 {
		return 1
	}
	return 1 + float64(w.DiurnalAmp*math.Sin(2*math.Pi*float64(t)/float64(w.DiurnalPeriod)))
}

// horizon is how long after its decision instant a client that runs its
// request locally is ready again, at most: the longest task plus the
// longest think, stretched by the diurnal trough. It is a float so that
// Validate can reject a horizon past the clock's range before anything
// converts it.
func (w *WorkloadModel) horizon() float64 {
	return float64(w.TmMax) + float64(w.ThinkMax)/(1-w.DiurnalAmp)
}

// issueReady runs one ready event: if the client still owes requests, it
// draws the task (Tm, M), prices the transfer legs over its own link at
// this instant, and returns the decision intent for the machine.
func issueReady(cfg *Config, cs *clientState, profiles []*netsim.Link, ci int32, now simtime.PS, st *stats) (intent, bool) {
	st.Events++
	if cs.remaining == 0 {
		return intent{}, false
	}
	cs.remaining--
	st.Requests++
	// The logical JobID: fixed here, at issue time, from (client, ordinal)
	// alone — 1-based so id 0 stays "unattributed" — and carried through
	// every continuation of the request's life. Being a pure function of
	// the client's identity, it does not depend on event order at all.
	ord := int64(cfg.RequestsPerClient) - int64(cs.remaining)
	tm := cs.rng.rangePS(cfg.Workload.TmMin, cfg.Workload.TmMax)
	mem := cs.rng.rangeI64(cfg.Workload.MemMin, cfg.Workload.MemMax)
	link := profiles[cs.prof].At(now)
	leg := link.TransferTime(mem) // the same link at the same instant prices both directions alike
	return intent{
		t:    now,
		ci:   ci,
		tm:   tm,
		mem:  mem,
		up:   leg,
		down: leg,
		bw:   link.BandwidthBps,
		rtt:  2 * (link.Latency + link.PerMessage),
		job:  int64(ci)*int64(cfg.RequestsPerClient) + ord,
	}, true
}

// applyDone records one completed request on the client and returns when
// its next ready event fires.
func applyDone(cfg *Config, cs *clientState, msg doneMsg, st *stats) simtime.PS {
	st.Events++
	st.record(msg)
	return msg.done + nextThink(cfg, cs, msg.done)
}

// Run executes one fleet simulation to completion and returns its
// statistics. The run is strictly deterministic in cfg (including Seed):
// per-entity RNG streams and the intrinsic (t, lane, seq) event order make
// the schedule a property of the configuration, not of how the engine
// queues its events.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runSequential(cfg)
}

// runSequential is the engine: the clients' ready events in a calendar
// queue, the server lanes' events in a heap, merged in (t, lane, seq) order with the
// machine's handlers invoked inline on one goroutine. Its test oracle,
// runSequentialRef, keeps every lane in one heap. Every array the run sizes
// by its shape is in a runMem from the spare list, given back at the end.
func runSequential(cfg Config) (*Result, error) {
	rm := takeRunMem()
	clients, profiles, err := buildClients(&cfg, rm)
	if err != nil {
		return nil, err
	}
	st := newStats(cfg.Clients*cfg.RequestsPerClient, rm)
	m := newMachine(&cfg, profiles, st, rm)
	nc := int32(cfg.Clients)
	// The calendar's ring covers the horizon; remote completions can land
	// later, on the queue's far list.
	rq := newReadyQueue(clients, simtime.PS(cfg.Workload.horizon()), rm)
	q := newSchedQueue(nc, len(cfg.Servers), rm)
	m.sched = func(t simtime.PS, kind uint8, si int32, j *job) {
		q.sched(t, kind, nc+si, si, j)
	}
	m.emit = func(msg doneMsg) {
		rq.push(applyDone(&cfg, &clients[msg.ci], msg, st), msg.ci)
	}

	// Stagger the fleet's first wave by one think time per client.
	for i := range clients {
		rq.push(nextThink(&cfg, &clients[i], 0), int32(i))
	}
	m.scheduleFaults()

	var now simtime.PS
	for {
		// Client lanes sort before every server lane, so at equal
		// instants the ready event goes first.
		if !rq.empty() && (q.empty() || rq.top().t <= q.top().t) {
			ev := rq.pop()
			now = ev.t
			if in, ok := issueReady(&cfg, &clients[ev.lane], profiles, ev.lane, ev.t, st); ok {
				m.handleIntent(in)
			}
			continue
		}
		if q.empty() {
			break
		}
		ev := q.pop()
		now = ev.t
		m.handleServerEvent(ev)
	}
	res, err := m.finishRun(st, now)
	if res != nil {
		res.readyPaths = rq.paths
	}
	rm.giveBack(st, rq, q, m)
	return res, err
}
