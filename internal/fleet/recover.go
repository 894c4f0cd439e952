package fleet

import (
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// The fault plane: server crashes and drains, and what happens to the
// work they strand. Every victim either moves through the re-placement
// primitive (relocate, place.go) or degrades to a client-local path.

// detectDelay is the health monitor's failure-detection latency: the gap
// between a server dying and the control plane declaring it dead off its
// missed heartbeats. It is a property of the migration subsystem — only
// fleets running with Migrate have a component watching server liveness.
// Drains are announced and pay the same small notification delay.
const detectDelay = 5 * simtime.Millisecond

// scheduleFaults seeds the server-fault timeline. Crash and drain are
// events; slowdowns and stalls are consulted lazily when jobs start.
func (m *machine) scheduleFaults() {
	if !m.cfg.ServerFaults.Active() {
		return
	}
	for _, fe := range m.cfg.ServerFaults.Events {
		switch fe.Kind {
		case faults.Crash:
			m.sched(fe.Start, evCrash, int32(fe.Server), nil)
		case faults.Drain:
			m.sched(fe.Start, evDrain, int32(fe.Server), nil)
		}
	}
}

// expireLocal is the recovery of a client without the control plane: it
// gives up on a dead server no earlier than instant at and not before its
// offload deadline runs out — the silent crash is indistinguishable from
// a slow queue until then — and only then re-executes locally.
func (m *machine) expireLocal(j *job, at simtime.PS) {
	at = simtime.Max(at, j.deadline)
	j.rec.mark(at, segDeadline, -1)
	m.fallLocal(j, outFallback, at)
}

// backhaulShip is the time to move a job's state server to server over
// the fleet backhaul: the payload plus one message's fixed costs.
func (m *machine) backhaulShip(mem int64) simtime.PS {
	return m.backhaul.TransferTime(mem) + m.backhaul.Latency + m.backhaul.PerMessage
}

// handleCrash loses everything the server held: running jobs mid-service
// and queued input state alike. Slots and accounting release here; the
// already-scheduled evFinish events fire as tombstoned no-ops.
func (m *machine) handleCrash(now simtime.PS, si int32) {
	m.stepCtrl(now)
	m.res.Events++
	s := m.servers[si]
	s.advance(now)
	if tr := m.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{Time: now, Kind: obs.KServerFault, Track: obs.TrackFleet,
			Name: "crash", A0: int64(si), A1: int64(len(s.running)), A2: int64(len(s.queue))})
	}
	running, queued := s.takeDown(true)
	for _, j := range running {
		j.cancelled = true
	}
	for _, j := range append(running, queued...) {
		// State died with the server, so recovery is a full re-send:
		// the health monitor flags the crash after detectDelay and the
		// client re-uploads its snapshot to the relocation target (or
		// falls back locally). Without the monitor the crash is silent
		// — the client burns its whole offload deadline before giving
		// up and re-executing locally.
		if r := j.rec; r != nil {
			r.faulted = true
			// The work done (or waited) before the crash is lost time.
			if j.cancelled {
				r.mark(now, segRunLost, si)
			} else {
				r.mark(now, segQueueLost, si)
			}
		}
		if m.cfg.Migrate {
			j.rec.mark(now+detectDelay, segDetect, -1)
			link := m.profiles[clientProfile(j.client, len(m.profiles))]
			reup := link.At(now + detectDelay).TransferTime(j.mem)
			if m.relocate(j, j.tm, now+detectDelay+reup, now+detectDelay, segResend) {
				m.res.Retried++
				if tr := m.cfg.Tracer; tr != nil {
					tr.Emit(obs.Event{Time: now, Kind: obs.KRetry, Track: obs.TrackFleet,
						Name: "resend", A0: int64(j.client), A1: int64(si), Job: j.id})
				}
			}
		} else {
			m.expireLocal(j, now+detectDelay)
		}
		if !j.cancelled {
			// Queued victims have no pending events; running ones recycle
			// when their tombstoned evFinish fires.
			m.freeJob(j)
		}
	}
}

// handleDrain takes the server out of rotation gracefully.
func (m *machine) handleDrain(now simtime.PS, si int32) {
	m.stepCtrl(now)
	m.res.Events++
	s := m.servers[si]
	s.advance(now)
	if tr := m.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{Time: now, Kind: obs.KServerFault, Track: obs.TrackFleet,
			Name: "drain", A0: int64(si), A1: int64(len(s.running)), A2: int64(len(s.queue))})
	}
	running, queued := s.takeDown(m.cfg.Migrate)
	if !m.cfg.Migrate {
		// Running jobs finish in place (a drain announces shutdown, it
		// does not kill state), but the queue is abandoned: each waiting
		// client falls back locally.
		for _, j := range queued {
			if r := j.rec; r != nil {
				r.faulted = true
				r.mark(now, segQueueLost, si)
				r.mark(now+detectDelay, segDetect, -1)
			}
			m.fallLocal(j, outFallback, now+detectDelay)
			m.freeJob(j)
		}
		return
	}
	// Live migration: running jobs checkpoint and ship their dirty state
	// over the backhaul, resuming mid-task on the target — only the
	// *remaining* mobile-time travels. Queued jobs forward whole (they
	// had not started) without a client round trip.
	for _, j := range running {
		j.cancelled = true
	}
	for _, j := range running {
		remTm := simtime.PS(0)
		if j.finish > now {
			remTm = simtime.PS(float64(j.finish-now) * s.spec.R)
		}
		if r := j.rec; r != nil {
			r.faulted = true
			r.mark(now, segRun, si) // the partial run before the checkpoint
		}
		ship := m.backhaulShip(j.mem)
		if m.relocate(j, remTm, now+ship, now+detectDelay, segWanShip) {
			m.res.Migrations++
			j.rec.migrate()
			if tr := m.cfg.Tracer; tr != nil {
				tr.Emit(obs.Event{Time: now, Kind: obs.KMigrateShip, Track: obs.TrackFleet,
					A0: int64(j.client), A1: int64(si), A2: j.mem, A3: int64(ship), Job: j.id})
			}
		}
	}
	for _, j := range queued {
		if r := j.rec; r != nil {
			r.faulted = true
			r.mark(now, segQueue, si) // the wait spent behind the drained backlog
		}
		if m.relocate(j, j.tm, now+m.backhaulShip(j.mem), now+detectDelay, segWanShip) {
			m.res.Retried++
			if tr := m.cfg.Tracer; tr != nil {
				tr.Emit(obs.Event{Time: now, Kind: obs.KRetry, Track: obs.TrackFleet,
					Name: "forward", A0: int64(j.client), A1: int64(si), Job: j.id})
			}
		}
		m.freeJob(j)
	}
}
