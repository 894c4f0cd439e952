package fleet

import (
	"repro/internal/estimate"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// Placement: the decision core. One intent handler prices every request
// through estimate.PlacementMargin — a flat fleet is the topology with a
// single tier and no WAN leg — and one re-placement primitive (replace)
// moves a live job to another server whatever triggered the move: a
// server fault or a saturated edge.

// runLocal completes a request that never left the client: the task
// runs on the phone from the decision instant.
func (m *machine) runLocal(in intent, kind uint8) {
	r := m.samp.rec(in.job, in)
	r.mark(in.t+in.tm, segLocal, -1)
	m.complete(r, doneMsg{ci: in.ci, kind: kind, decide: in.t, done: in.t + in.tm})
}

// fallLocal completes a dispatched job down a local path: the client
// starts re-executing the whole task at instant start.
func (m *machine) fallLocal(j *job, kind uint8, start simtime.PS) {
	j.rec.mark(start+j.tm, segLocal, -1)
	m.complete(j.rec, doneMsg{ci: j.client, kind: kind, decide: j.decide, done: start + j.tm})
}

// handleIntent runs a client's decision instant. One pick *within* each
// tier yields that tier's best server and live queue delay, and
// estimate.PlacementMargin arbitrates the {local, edge, cloud} race with
// each tier priced on its own network path — the access link alone for
// the edge, access plus WAN leg in series for the cloud. A flat fleet is
// the one-tier case: its whole pool is the edge candidate set, the cloud
// option is absent, and the race is exactly the paper's binary gate
// (Equation 1 plus queueing delay). The topology's mode masks candidate
// sets (see newMachine) to degenerate into the static edge-only /
// cloud-only baselines; the local gate always stays live.
func (m *machine) handleIntent(in intent) {
	m.stepCtrl(in.t)
	m.res.Events++
	now := in.t

	var edge, cloud estimate.TierOption
	ei, ew := m.disp.pickAmong(m.edgeLoad, now, in.tm, in.up, in.down)
	if ei >= 0 {
		edge = estimate.TierOption{OK: true, Queue: ew,
			P: estimate.Params{R: m.servers[ei].spec.R, BandwidthBps: in.bw, RTT: in.rtt}}
		// Only the est-aware policy extends the gate with the live
		// queueing-delay signal (the contention-aware gate); the naive
		// policies keep the paper's load-blind gate, assuming a dedicated
		// server — which is exactly what overruns queues and triggers
		// admission sheds under heavy traffic. The margin scales the
		// charged delay when adaptive control has learned the raw signal
		// under-prices contention.
		if m.cfg.Policy != EstAware {
			edge.Queue = 0
		}
	}
	ci, cw, wanLeg := -1, simtime.PS(0), simtime.PS(0)
	if len(m.cloudIdx) > 0 {
		wanLeg = m.wan.TransferTime(in.mem)
		ci, cw = m.disp.pickAmong(m.cloudLoad, now, in.tm, in.up+wanLeg, in.down+wanLeg)
		if ci >= 0 {
			cloud = estimate.TierOption{OK: true, Queue: cw,
				P: estimate.Params{R: m.servers[ci].spec.R,
					BandwidthBps: tiers.CombineBps(in.bw, m.wan.BandwidthBps),
					RTT:          in.rtt + m.wanRTT}}
		}
	}
	if ei < 0 && ci < 0 {
		// The whole pool is down or draining: nothing to offload to.
		if tr := m.cfg.Tracer; tr != nil {
			tr.Emit(obs.Event{Time: now, Kind: obs.KGate, Track: obs.TrackFleet,
				Name: "pool-down", A0: int64(in.tm), A1: in.mem, Job: in.job})
		}
		m.runLocal(in, outFallback)
		return
	}

	choice, est := estimate.PlacementMargin(in.tm, in.mem, edge, cloud, m.margin)
	si, wait := -1, simtime.PS(0)
	up, down := in.up, in.down
	switch choice {
	case estimate.PlaceEdge:
		si, wait = ei, ew
	case estimate.PlaceCloud:
		si, wait = ci, cw
		up += wanLeg
		down += wanLeg
	}
	// The verdict's trace record is the one flat/tiered difference: a
	// tiered fleet logs every placement, a flat one only its declines
	// (mirroring offrt.Session.Gate). Every Emit in the machine sits behind
	// a nil test: Emit is not inlined, so without one a run with no tracer
	// would still build and copy an 80-byte Event per decline.
	if tr := m.cfg.Tracer; tr != nil {
		if m.topo != nil {
			tr.Emit(obs.Event{Time: now, Kind: obs.KTierPlace, Track: obs.TrackFleet,
				Name: choice.String(), A0: int64(in.ci), A1: int64(si), A2: int64(est), A3: int64(wait),
				Job: in.job})
		} else if si < 0 {
			tr.Emit(obs.Event{Time: now, Kind: obs.KGate, Track: obs.TrackFleet,
				Name: "decline", A0: int64(in.tm), A1: in.mem, A2: in.bw, A3: int64(ew), Job: in.job})
		}
	}
	if si < 0 {
		// Local won the race: no tier's RemoteTime beats Tm.
		m.runLocal(in, outDecline)
		return
	}
	srv := m.servers[si]
	m.res.Dispatched++
	if tr := m.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{Time: now, Kind: obs.KDispatch, Track: obs.TrackFleet,
			Name: string(m.cfg.Policy), A0: int64(in.ci), A1: int64(si),
			A2: int64(len(srv.queue)), A3: int64(wait), Job: in.job})
	}
	exec := srv.execTime(in.tm)
	j := m.newJob()
	*j = job{id: in.job, rec: m.samp.rec(in.job, in), pend: segUplink,
		client: in.ci, tm: in.tm, mem: in.mem, exec: exec,
		decide: now, down: down, adown: in.down, tier: m.tierOf(si),
		deadline: now + simtime.PS(estimate.DeadlineSlack*float64(up+exec+down))}
	srv.reserve(j.exec)
	m.sched(now+up, evArrive, int32(si), j)
}

// handleArrive lands a dispatched request on its server: release the
// reservation, reroute off a dead server, run admission control, then
// start or enqueue.
func (m *machine) handleArrive(now simtime.PS, si int32, j *job) {
	m.stepCtrl(now)
	m.res.Events++
	s := m.servers[si]
	// The reservation materializes: the job is now visible in the queue
	// or a slot instead. This runs even when the server is down — a
	// reservation against a dead server is exactly the slot-accounting
	// leak the end-of-run invariant guards.
	s.release(j.exec)
	// The transit that delivered this arrival (uplink, WAN ship, resend)
	// closes here.
	j.rec.mark(now, j.pend, -1)
	if s.down {
		// The request landed on a dead or draining server. With
		// migration support the fleet reroutes it to a survivor;
		// without, the client's deadline expires and it re-executes
		// locally.
		j.rec.fault()
		if m.cfg.Migrate && m.relocate(j, j.tm, now+detectDelay, now+detectDelay, segDetect) {
			m.res.Retried++
			if tr := m.cfg.Tracer; tr != nil {
				tr.Emit(obs.Event{Time: now, Kind: obs.KRetry, Track: obs.TrackFleet,
					Name: "redispatch", A0: int64(j.client), A1: int64(si), Job: j.id})
			}
		} else if !m.cfg.Migrate {
			j.rec.mark(now+detectDelay, segDetect, -1)
			m.expireLocal(j, now+detectDelay)
		}
		m.freeJob(j)
		return
	}
	depth := len(s.queue)
	// Admission control runs against the server's *actual* state at
	// arrival — decision-time estimates are already stale by one transfer
	// time, which is exactly how a thundering herd overruns a queue
	// bound. The bounds are m.adm, not cfg.Admission: under adaptive
	// control they move every period.
	if !j.recovery &&
		((m.adm.MaxQueue > 0 && depth >= m.adm.MaxQueue && s.busy >= s.spec.Slots) ||
			(m.adm.MaxWait > 0 && s.estWait(now) > m.adm.MaxWait)) {
		notice := m.profiles[clientProfile(j.client, len(m.profiles))].At(now).TransferTime(shedNoticeBytes)
		// A saturated edge demotes the arrival to the cloud tier instead
		// of shedding it, when the WAN detour still beats the local
		// fallback the shed would force.
		if j.tier == tierEdge && m.crossTier && m.demote(now, si, j, notice+j.tm, false) {
			m.freeJob(j)
			return
		}
		m.ctrl.noteShed()
		if tr := m.cfg.Tracer; tr != nil {
			tr.Emit(obs.Event{Time: now, Kind: obs.KShed, Track: obs.TrackFleet,
				A0: int64(j.client), A1: int64(si), A2: int64(depth), Job: j.id})
		}
		// Local fallback: the client hears the reject, then runs the
		// task itself.
		if r := j.rec; r != nil {
			r.server = si
			r.mark(now+notice, segNotice, si)
		}
		m.fallLocal(j, outShed, now+notice)
		m.freeJob(j)
		return
	}
	s.advance(now)
	if s.busy < s.spec.Slots {
		m.recordWait(si, 0)
		m.startJob(si, j, now)
	} else {
		// Late-binding demotion: the edge backlog this arrival would
		// queue behind can have overshot the decision-time estimate (a
		// diurnal burst lands faster than slots free). If the cloud now
		// beats staying by more than the WAN detour costs, push the
		// request down a tier instead of queueing it.
		if j.tier == tierEdge && !j.recovery && m.crossTier &&
			m.demote(now, si, j, s.estWait(now)+s.execTime(j.tm)+j.adown, true) {
			m.freeJob(j)
			return
		}
		j.enq = now
		s.enqueue(j)
	}
}

// startJob moves a job into a slot of server si at instant t. A scheduled
// stall at t pushes the start to the window's end; a slowdown in effect
// then stretches the whole service time by its factor (coarse: the factor
// at start governs the job, window edges inside the service interval are
// not split), capped at maxHorizon so no factor wraps the clock.
func (m *machine) startJob(si int32, j *job, t simtime.PS) {
	s := m.servers[si]
	s.busy++
	fin := t + j.exec
	if p := m.cfg.ServerFaults; p.Active() {
		start := t
		if until, ok := p.StallUntil(int(si), start); ok {
			start = until
		}
		fin = start + simtime.PS(min(float64(j.exec)*p.SlowFactor(int(si), start), maxHorizon))
	}
	j.finish = fin
	s.start(j)
	m.sched(j.finish, evFinish, si, j)
}

// handleFinish completes a job: reply to the client, free the slot, pull
// the next queued job in.
func (m *machine) handleFinish(now simtime.PS, si int32, j *job) {
	m.stepCtrl(now)
	m.res.Events++
	if j.cancelled {
		// The server died mid-service; the slot and accounting were
		// released at the fault instant.
		m.freeJob(j)
		return
	}
	s := m.servers[si]
	s.advance(now)
	s.busy--
	s.dropRunning(j)
	done := now + j.down
	missed := j.deadline > 0 && done > j.deadline
	m.ctrl.noteFinish(missed)
	if r := j.rec; r != nil {
		r.server = si
		r.mark(now, segRun, si)
		r.mark(done, segReply, -1)
	}
	m.complete(j.rec, doneMsg{ci: j.client, kind: outOffload, tier: j.tier, missed: missed, decide: j.decide, done: done})
	m.freeJob(j)
	if len(s.queue) > 0 && s.busy < s.spec.Slots {
		next := s.pop()
		wait := now - next.enq
		m.recordWait(si, wait)
		next.rec.mark(now, segQueue, si)
		if tr := m.cfg.Tracer; tr != nil {
			tr.Emit(obs.Event{Time: now, Kind: obs.KQueue, Track: obs.TrackFleet,
				A0: int64(next.client), A1: int64(si), A2: int64(wait), Job: next.id})
		}
		m.startJob(si, next, now)
	}
}

// replyLeg is the reply transfer time and tier code of job j served from
// server ti: an edge (or flat-fleet) server replies over the access link
// alone, a cloud one adds the WAN leg.
func (m *machine) replyLeg(j *job, ti int) (simtime.PS, uint8) {
	tier := m.tierOf(ti)
	if tier == tierCloud {
		return j.adown + m.wan.TransferTime(j.mem), tier
	}
	return j.adown, tier
}

// replace is the re-placement primitive: move live job j's remaining
// work (remTm, in mobile time) to the best surviving server among
// candidates, if that beats the alternative the caller would otherwise
// take. The target is chosen by est-aware placement regardless of the
// dispatch policy — moving a job is a runtime mechanism, not a routing
// preference. The move is the migration analogue of the Equation-1 gate:
// estimated completion at the target (arrival at + queueing + execution +
// the reply leg for the target's tier) races bar, the completion instant
// of staying put or falling back, and must strictly beat it. On a win the
// work leaves as one continuation job arriving at instant at and the
// target index is returned; otherwise -1, and the caller's own path runs.
//
// The continuation inherits the logical id and span record, carries
// recovery=true, and reserves its service time on the target exactly like
// a fresh dispatch, so slot accounting stays exact across moves. transit
// labels the span segment the transfer charges (detect for in-flight
// reroutes, resend for crash re-uploads, wan.ship for checkpoint and
// cross-tier moves); deadline is the client patience the continuation
// keeps answering to (zero once a fault has already voided it).
//
// The walk prices every live candidate's running list, and under demote
// it runs at every saturated edge arrival to lose nineteen times in
// twenty. The candidates are those of ix, one tier's index, or with a nil
// ix the whole pool (fault recovery re-places anywhere, across the tiers).
// One tier shares one reply leg, so there the race is
// total < bar - at - down for some candidate, and when ix.mayBeat rules
// that out no walk can win. When it cannot, the walk runs as ever and
// alone picks the target. It is not estimate.Cheapest: across the tiers it
// ranks by wait + execution and adds only the winner's reply leg, an order
// the candidates' full option totals would not keep.
func (m *machine) replace(j *job, ix *loadIndex, remTm, at, bar simtime.PS, transit uint8, deadline simtime.PS) int {
	candidates := m.allIdx
	if ix != nil {
		candidates = ix.cand
		if len(candidates) == 0 {
			return -1
		}
		if down, _ := m.replyLeg(j, candidates[0]); !ix.mayBeat(at, remTm, bar-at-down) {
			return -1
		}
	}
	ti, bestTotal := -1, simtime.PS(0)
	for _, i := range candidates {
		s := m.servers[i]
		if s.down {
			continue
		}
		total := s.estWaitAt(at) + s.execTime(remTm)
		if ti < 0 || total < bestTotal {
			ti, bestTotal = i, total
		}
	}
	if ti < 0 {
		return -1
	}
	down, tier := m.replyLeg(j, ti)
	if at+bestTotal+down >= bar {
		return -1
	}
	t := m.servers[ti]
	nj := m.newJob()
	*nj = job{id: j.id, rec: j.rec, pend: transit,
		client: j.client, tm: j.tm, mem: j.mem, exec: t.execTime(remTm),
		decide: j.decide, down: down, adown: j.adown, tier: tier,
		recovery: true, deadline: deadline}
	t.reserve(nj.exec)
	m.sched(at, evArrive, int32(ti), nj)
	return ti
}

// relocate routes a fault victim's remaining work to the best surviving
// server anywhere in the pool, arriving at instant at, or sends the
// client down the local path when full local re-execution starting at
// localAt is the better estimate — a loaded pool, or no survivor at all,
// makes local the better recovery. The victim is not forced remote.
func (m *machine) relocate(j *job, remTm simtime.PS, at, localAt simtime.PS, transit uint8) bool {
	if m.replace(j, nil, remTm, at, localAt+j.tm, transit, 0) >= 0 {
		return true
	}
	j.rec.mark(localAt, segDetect, -1)
	m.fallLocal(j, outFallback, localAt)
	return false
}

// demote forwards an edge arrival down to the cloud tier: the request's
// input state ships one WAN leg to the best cloud server instead of
// staying put. stay is the estimated time-from-now of the alternative
// the caller would otherwise take — local re-execution for an admission
// shed, queueing behind the edge backlog for a late-binding re-place. A
// voluntary move must additionally win by more than the ship time itself
// (the hysteresis that keeps marginal estimates from bouncing work
// across the WAN), while a shed-conversion only has to beat the fallback
// it replaces. Returns false to let the caller's normal path run.
func (m *machine) demote(now simtime.PS, si int32, j *job, stay simtime.PS, voluntary bool) bool {
	ship := m.wan.TransferTime(j.mem)
	bar := now + stay
	if voluntary {
		bar -= ship
	}
	ti := m.replace(j, m.cloudLoad, j.tm, now+ship, bar, segWanShip, j.deadline)
	if ti < 0 {
		return false
	}
	m.res.Demotions++
	if tr := m.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{Time: now, Kind: obs.KTierMigrate, Track: obs.TrackFleet,
			Name: "demote", A0: int64(j.client), A1: int64(si), A2: int64(ti), A3: int64(ship),
			Job: j.id})
	}
	j.rec.migrate()
	return true
}
