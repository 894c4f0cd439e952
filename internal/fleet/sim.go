package fleet

import (
	"math"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

// clientState is one simulated mobile device. Client-side logic (workload
// draws from the client's private stream, link pricing, completion
// bookkeeping) touches no other client's state and no server state, so a
// client's draws depend only on its own stream and on the instants of its
// own events — never on how many other clients there are or what they did.
type clientState struct {
	rng       rng
	link      *netsim.Link
	remaining int
}

// buildClients materializes the client population and the per-client link
// table: client i uses profile i mod len, and clients on the same profile
// share one immutable Link instance (a private copy per client would, at a
// million clients, be real memory).
func buildClients(cfg *Config) ([]clientState, []*netsim.Link, error) {
	base, err := linkProfiles(cfg)
	if err != nil {
		return nil, nil, err
	}
	clients := make([]clientState, cfg.Clients)
	links := make([]*netsim.Link, cfg.Clients)
	for i := range clients {
		links[i] = base[i%len(base)]
		clients[i] = clientState{
			rng:       entityStream(cfg.Seed, uint64(i)),
			link:      links[i],
			remaining: cfg.RequestsPerClient,
		}
	}
	return clients, links, nil
}

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
	return 1 + w.DiurnalAmp*math.Sin(2*math.Pi*float64(t)/float64(w.DiurnalPeriod))
}

// issueReady runs one ready event: if the client still owes requests, it
// draws the task (Tm, M), prices the transfer legs over its own link at
// this instant, and returns the decision intent for the machine.
func issueReady(cfg *Config, cs *clientState, ci int32, now simtime.PS, st *stats) (intent, bool) {
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
	ord := int64(cfg.RequestsPerClient - cs.remaining)
	tm := cs.rng.rangePS(cfg.Workload.TmMin, cfg.Workload.TmMax)
	mem := cs.rng.rangeI64(cfg.Workload.MemMin, cfg.Workload.MemMax)
	link := cs.link.At(now)
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

// runSequential is the engine: the clients' ready events in one queue, the
// server lanes' events in another, merged in (t, lane, seq) order with the
// machine's handlers invoked inline on one goroutine. Its test oracle,
// runSequentialRef, keeps every lane in one heap.
func runSequential(cfg Config) (*Result, error) {
	clients, links, err := buildClients(&cfg)
	if err != nil {
		return nil, err
	}
	st := newStats(cfg.Clients * cfg.RequestsPerClient)
	m := newMachine(&cfg, links, st)
	nc := int32(cfg.Clients)
	rq := newReadyQueue(cfg.Clients)
	q := newSchedQueue(nc, len(cfg.Servers))
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
			if in, ok := issueReady(&cfg, &clients[ev.lane], ev.lane, ev.t, st); ok {
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
	return m.finishRun(st, now)
}
