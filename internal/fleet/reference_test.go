package fleet

import "repro/internal/simtime"

// runSequentialRef is the single-heap engine the two-queue runSequential
// replaced, kept as its oracle: every lane — clients and servers — in one
// schedQueue of full 32-byte events ordered by (t, lane, seq). It never
// assumes a client lane holds one event, so if that invariant broke the
// per-lane ordinal would still order the two and the engines would
// diverge from it here. Its arrays are its own, never the spare list's.
func runSequentialRef(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rm := new(runMem)
	clients, profiles, err := buildClients(&cfg, rm)
	if err != nil {
		return nil, err
	}
	st := newStats(cfg.Clients*cfg.RequestsPerClient, rm)
	m := newMachine(&cfg, profiles, st, rm)
	nc := int32(cfg.Clients)
	q := newSchedQueue(0, cfg.Clients+len(cfg.Servers), rm)
	m.sched = func(t simtime.PS, kind uint8, si int32, j *job) {
		q.sched(t, kind, nc+si, si, j)
	}
	m.emit = func(msg doneMsg) {
		next := applyDone(&cfg, &clients[msg.ci], msg, st)
		q.sched(next, evReady, msg.ci, 0, nil)
	}
	for i := range clients {
		q.sched(nextThink(&cfg, &clients[i], 0), evReady, int32(i), 0, nil)
	}
	m.scheduleFaults()

	var now simtime.PS
	for !q.empty() {
		ev := q.pop()
		now = ev.t
		if ev.kind == evReady {
			if in, ok := issueReady(&cfg, &clients[ev.lane], profiles, ev.lane, ev.t, st); ok {
				m.handleIntent(in)
			}
			continue
		}
		m.handleServerEvent(ev)
	}
	return m.finishRun(st, now)
}
