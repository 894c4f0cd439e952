package fleet

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// job is one offload request in flight through the fleet.
type job struct {
	// id is the logical JobID: fixed when the client issues the request
	// and inherited by every continuation a retry, demotion or migration
	// creates, so one id names the whole causal chain.
	id int64
	// rec is the job's span record when the tail sampler is on (nil
	// otherwise); continuations share it.
	rec *jobRec
	// pend labels the in-flight transit interval the next arrival closes
	// (uplink for a dispatch, wan.ship for a cross-tier move, ...).
	pend   uint8
	client int32
	tm     simtime.PS // mobile execution time (Equation 1's Tm)
	mem    int64      // memory footprint (Equation 1's M)
	exec   simtime.PS // execution time at the chosen server
	decide simtime.PS // when the client decided to offload
	enq    simtime.PS // when the request entered the run queue
	finish simtime.PS // when the server will complete it (running jobs)
	down   simtime.PS // reply transfer time over the client's link
	// deadline is the client's patience for the whole offload, fixed at
	// dispatch like offrt's offloadDeadline: estimate.DeadlineSlack times
	// the predicted transfer + execution + reply. Without the migration
	// control plane this expiry is the client's only way to learn its
	// server died — a crash costs the client its remaining patience, not
	// the monitor's five milliseconds.
	deadline simtime.PS
	// cancelled tombstones a job whose server died mid-service: its
	// already-scheduled evFinish must fire as a no-op, because its slot and
	// accounting were released at the fault instant.
	cancelled bool
	// recovery marks a job re-placed after a server fault. Recovery
	// traffic is control-plane placement against a live reservation — it
	// already raced the local-fallback estimate at relocation time — so
	// the client-facing admission bound does not shed it a second time.
	recovery bool
	// tier is the tier the job is placed on (tierEdge/tierCloud; 0 in a
	// flat fleet). A cross-tier move restamps it.
	tier uint8
	// adown is the access-link-only reply time, kept alongside down so a
	// cross-tier move can recompute the reply leg: an edge job replies
	// over adown alone, a cloud job over adown plus the WAN leg.
	adown simtime.PS
}

// server is one pool member's live state.
type server struct {
	spec    ServerSpec
	busy    int    // occupied slots
	running []*job // jobs in slots (finish times feed the load estimate)
	queue   []*job // waiting jobs, ordered by the queue discipline at pop

	// reserved is dispatcher-side bookkeeping: service time of requests
	// routed here but still in flight over their clients' links. Without
	// it every concurrent est-aware decision sees the same idle server
	// and herds onto it — the classic join-shortest-queue-with-stale-info
	// pathology.
	reserved simtime.PS

	// finSum and queExec keep estWait O(1): the sum of running jobs'
	// absolute finish instants and of queued jobs' service times. Walking
	// both slices per estimate — per dispatch, per server — is at fleet
	// scale the hottest loop in the simulator.
	finSum  simtime.PS
	queExec simtime.PS

	// busyPS integrates busy slots over time for the utilization gauge;
	// maxDepth tracks the deepest queue ever observed.
	busyPS   simtime.PS
	lastT    simtime.PS
	maxDepth int

	// down marks a crashed or draining server: the dispatcher routes
	// around it and arrivals already in flight are relocated.
	down bool

	// id is the server's pool index. ix is the loadIndex filing this
	// server (nil for one outside every candidate set), pos its candidate
	// position there and stale whether ix already lists it for re-filing.
	// down, running, reserved, queExec and finSum are what the index reads:
	// only the methods below write them, and each ends in mark.
	id    int
	ix    *loadIndex
	pos   int32
	stale bool
}

// mark tells the server's index its load changed. Nothing is recomputed
// here: the position joins the index's stale list once, and the next query
// re-files it.
func (s *server) mark() {
	if s.ix != nil && !s.stale {
		s.stale = true
		s.ix.stale = append(s.ix.stale, s.pos)
	}
}

// advance integrates the utilization clock to now.
func (s *server) advance(now simtime.PS) {
	if now > s.lastT {
		s.busyPS += simtime.PS(int64(s.busy) * int64(now-s.lastT))
		s.lastT = now
	}
}

// execTime is a task's service time on a server of speed r > 0 (Validate):
// Equation 1's remote time for mobile time tm with nothing to move, no queue.
func execTime(tm simtime.PS, r float64) simtime.PS {
	return estimate.Params{R: r}.RemoteTime(tm, 0, 0)
}

// execTime is the task's service time at this server's speed.
func (s *server) execTime(tm simtime.PS) simtime.PS {
	return execTime(tm, s.spec.R)
}

// outstanding is all the work the server owes at instant now, summed
// over its slots: remaining service of running jobs, the full service of
// queued ones, and in-flight reservations. Running jobs always have
// finish >= now (their evFinish has not fired), so the incremental form
// equals the per-job walk exactly. That, and reserved >= 0 (release
// panics below it), make the sum non-negative — the two invariants
// loadIndex's clock-free key relies on.
func (s *server) outstanding(now simtime.PS) simtime.PS {
	return s.reserved + s.queExec + s.finSum - simtime.PS(len(s.running))*now
}

// estWait estimates the queueing delay a request dispatched now would
// face: the outstanding work spread across the slots. This is the live
// load signal the dispatcher exposes — to its own policies, to the
// admission bound, and to the est-aware gate.
func (s *server) estWait(now simtime.PS) simtime.PS {
	return s.outstanding(now) / simtime.PS(s.spec.Slots)
}

// estWaitAt is the walk form of estWait for *future* instants — the fault
// recovery paths estimate load at arrival times past now, where a running
// job finishing before at must contribute zero, not negative. Recovery is
// rare, so the O(running) walk stays off the dispatch hot path.
func (s *server) estWaitAt(at simtime.PS) simtime.PS {
	left := s.reserved + s.queExec
	for _, j := range s.running {
		if j.finish > at {
			left += j.finish - at
		}
	}
	return left / simtime.PS(s.spec.Slots)
}

// reserve books the service time of a request routed here and still in
// flight; release returns it when the request lands. A release beyond
// what was reserved is the slot-accounting leak Result.finish reports at
// the end of a run, caught where it happens.
func (s *server) reserve(exec simtime.PS) {
	s.reserved += exec
	s.mark()
}

func (s *server) release(exec simtime.PS) {
	s.reserved -= exec
	if s.reserved < 0 {
		panic(fmt.Sprintf("fleet: server %d released %v more than was reserved on it", s.id, -s.reserved))
	}
	s.mark()
}

// enqueue appends to the run queue.
func (s *server) enqueue(j *job) {
	s.queue = append(s.queue, j)
	s.queExec += j.exec
	if len(s.queue) > s.maxDepth {
		s.maxDepth = len(s.queue)
	}
	s.mark()
}

// pop removes the oldest queued job: servers run their queues FIFO.
func (s *server) pop() *job {
	j := s.queue[0]
	s.queue = append(s.queue[:0], s.queue[1:]...)
	s.queExec -= j.exec
	s.mark()
	return j
}

// start puts a job whose finish instant is set into a slot.
func (s *server) start(j *job) {
	s.running = append(s.running, j)
	s.finSum += j.finish
	s.mark()
}

// dropRunning removes a completed job from the slot list. A job that is
// not running here is a bookkeeping bug: it panics, like release, rather
// than leave finSum and the load index wrong.
func (s *server) dropRunning(j *job) {
	for i, r := range s.running {
		if r == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			s.finSum -= j.finish
			s.mark()
			return
		}
	}
	panic(fmt.Sprintf("fleet: server %d drops job %d, which is not in its slots", s.id, j.id))
}

// takeDown takes a crashed or draining server out of rotation and detaches
// what it held: the queue always, and with stop the jobs in its slots too
// (a crash loses them, a migrating drain ships them; otherwise they finish
// in place).
func (s *server) takeDown(stop bool) (running, queued []*job) {
	s.down = true
	queued, s.queue, s.queExec = s.queue, nil, 0
	if stop {
		running, s.running, s.finSum, s.busy = s.running, nil, 0, 0
	}
	s.mark()
	return running, queued
}

// shedNoticeBytes is the size of the admission-reject notification the
// client waits for before falling back locally.
const shedNoticeBytes = 64

// Completion outcome kinds carried by doneMsg.
const (
	outOffload  uint8 = iota // completed remotely
	outDecline               // contention-aware gate chose local
	outShed                  // admission control forced local fallback
	outFallback              // no viable server: ran locally
)

// doneMsg tells a client its request completed. It is the only message
// that crosses from the server-side machine back to client-side state,
// and the engine applies it inline: the client draws its next think time
// from its own stream and its ready event joins the client-lane queue.
type doneMsg struct {
	ci     int32
	kind   uint8
	tier   uint8 // completion tier of an offload (0 in a flat fleet)
	missed bool  // an offload's reply landed after its dispatch deadline
	decide simtime.PS
	done   simtime.PS
}

// Tier codes carried by job.tier and doneMsg.tier: zero means the flat
// (untiered) fleet, so the codes are the tiers.Tier values shifted by
// one.
const (
	tierEdge  = uint8(tiers.Edge) + 1
	tierCloud = uint8(tiers.Cloud) + 1
)

// intent is a client's decision instant crossing into the machine: one
// ready event's draws, priced over the client's own link. Everything the
// dispatch/gate path needs travels by value, so the machine never touches
// client state and no machine decision can reach a client's stream.
type intent struct {
	t    simtime.PS
	tm   simtime.PS
	up   simtime.PS
	down simtime.PS
	rtt  simtime.PS
	mem  int64
	bw   int64
	job  int64 // logical JobID (client id x requests-per-client + ordinal)
	ci   int32
}

// machine is the server-side state machine: dispatcher, Equation-1 gate,
// admission control, slots/queues and the fault/recovery plane. Every
// mutation of global state happens here, in strict (t, lane, seq) event
// order — the engine feeds it the merge of the client-lane and server-lane
// queues, the single-heap test oracle one heap of both — which is what
// makes the two bit-identical.
type machine struct {
	cfg      *Config
	servers  []*server
	profiles []*netsim.Link // the client link profiles, shared and immutable (buildClients)
	disp     dispatcher
	backhaul *netsim.Link

	// Candidate index sets the decision core picks within. allIdx is the
	// whole pool (fault recovery re-places anywhere). edgeIdx and cloudIdx
	// are what the placement gate may choose from per tier, already masked
	// by the topology's mode: a flat fleet is the one-tier case — edgeIdx
	// is the whole pool and there is no cloud — edge-only empties
	// cloudIdx, cloud-only empties edgeIdx.
	allIdx   []int
	edgeIdx  []int
	cloudIdx []int
	// edgeLoad and cloudLoad index edgeIdx and cloudIdx for the picks (and
	// cloudLoad for demotion's re-placement bound).
	edgeLoad  *loadIndex
	cloudLoad *loadIndex

	// Tiered-topology state (nil/zero in a flat fleet). wan and wanRTT
	// cache the topology's backhaul so the dispatch hot path never
	// re-materializes the link; crossTier says demotion is live (3-way
	// placement with Migrate on).
	topo      *tiers.Topology
	wan       *netsim.Link
	wanRTT    simtime.PS // both fixed round-trip costs of the WAN leg
	crossTier bool
	hWaitTier [2]*obs.Histogram

	// Live admission bounds and gate margin: copies of cfg.Admission and
	// 1.0 under static control, steered by ctrl when adaptive.
	adm    Admission
	margin float64
	ctrl   *controller

	st    *stats // the run's tally, shared with the client-side handlers
	hWait *obs.Histogram

	// samp is the tail sampler (nil unless Config.Exemplars > 0). It
	// lives in the machine because every completion is delivered here, in
	// the (t, lane, seq) event order — which makes the retained exemplar
	// set a property of the configuration for free.
	samp *sampler

	sched func(t simtime.PS, kind uint8, si int32, j *job)
	emit  func(msg doneMsg)

	free []*job
}

// newMachine builds the machine over rm's job free list and queue-wait
// histograms.
func newMachine(cfg *Config, profiles []*netsim.Link, st *stats, rm *runMem) *machine {
	servers := make([]*server, len(cfg.Servers))
	for i, spec := range cfg.Servers {
		servers[i] = &server{spec: spec, id: i}
	}
	rm.waits = [3]obs.Histogram{}
	m := &machine{
		cfg:      cfg,
		servers:  servers,
		profiles: profiles,
		disp:     dispatcher{policy: cfg.Policy, rng: entityStream(cfg.Seed, dispatcherEntity)},
		backhaul: netsim.Backhaul(),
		adm:      cfg.Admission,
		margin:   1,
		st:       st,
		hWait:    &rm.waits[0],
		samp:     newSampler(cfg),
		free:     rm.jobs,
	}
	if cfg.Adaptive.Enabled {
		m.ctrl = newController(cfg.Admission)
		m.adm = Admission{MaxQueue: m.ctrl.queue, MaxWait: m.ctrl.wait}
		m.margin = m.ctrl.margin
	}
	m.allIdx = make([]int, len(servers))
	for i := range m.allIdx {
		m.allIdx[i] = i
	}
	m.edgeIdx = m.allIdx
	if cfg.Tiers != nil {
		m.topo = cfg.Tiers
		m.wan = m.topo.WAN()
		m.wanRTT = 2 * (m.wan.Latency + m.wan.PerMessage)
		mode := m.topo.EffectiveMode()
		m.crossTier = cfg.Migrate && mode == tiers.ThreeWay
		nEdge, _ := m.topo.Indices(tiers.Cloud)
		m.edgeIdx, m.cloudIdx = m.allIdx[:nEdge], m.allIdx[nEdge:]
		switch mode {
		case tiers.EdgeOnly:
			m.cloudIdx = nil
		case tiers.CloudOnly:
			m.edgeIdx = nil
		}
		m.hWaitTier = [2]*obs.Histogram{&rm.waits[1], &rm.waits[2]}
	}
	m.edgeLoad = newLoadIndex(servers, m.edgeIdx)
	m.cloudLoad = newLoadIndex(servers, m.cloudIdx)
	return m
}

func (m *machine) recordWait(si int32, w simtime.PS) {
	m.hWait.Record(int64(w))
	if m.topo != nil {
		m.hWaitTier[m.topo.TierOf(int(si))].Record(int64(w))
	}
}

// tierOf is the tier code of server si: tierEdge/tierCloud under a
// topology, zero in a flat fleet.
func (m *machine) tierOf(si int) uint8 {
	if m.topo == nil {
		return 0
	}
	return uint8(m.topo.TierOf(si)) + 1
}

// newJob hands out a job from the free list. Jobs recycle once no event
// or server slice can still reference them, so a million-client run
// reuses a working set of a few thousand instead of allocating per
// request, and the list is the run memory's, so the next run starts with
// that working set.
func (m *machine) newJob() *job {
	if n := len(m.free); n > 0 {
		j := m.free[n-1]
		m.free = m.free[:n-1]
		return j
	}
	return &job{}
}

func (m *machine) freeJob(j *job) {
	*j = job{}
	m.free = append(m.free, j)
}

// complete finalizes a job's span record, feeds the tail sampler, and
// delivers the completion to the owning client. Every terminal path of a
// job funnels through here, so the sampler observes each logical request
// exactly once, in the serial core's deterministic order.
func (m *machine) complete(r *jobRec, msg doneMsg) {
	if r != nil {
		r.out = msg.kind
		r.tier = msg.tier
		r.missed = msg.missed
		r.done = msg.done
		m.samp.observe(r, m.cfg.Tracer)
	}
	m.emit(msg)
}

// stepCtrl advances the adaptive controller across any period boundaries
// up to now. It runs from the handlers in the global (t, lane, seq) event
// order, so the control trajectory is deterministic.
func (m *machine) stepCtrl(now simtime.PS) {
	c := m.ctrl
	if c == nil {
		return
	}
	for now >= c.next {
		busy, slots := 0, 0
		for _, s := range m.servers {
			if s.down {
				continue
			}
			busy += s.busy
			slots += s.spec.Slots
		}
		c.step(busy, slots)
		c.next += adaptPeriod
		m.adm = Admission{MaxQueue: c.queue, MaxWait: c.wait}
		m.margin = c.margin
	}
}

// handleServerEvent dispatches one popped server-lane event.
func (m *machine) handleServerEvent(ev event) {
	switch ev.kind {
	case evArrive:
		m.handleArrive(ev.t, ev.si, ev.j)
	case evFinish:
		m.handleFinish(ev.t, ev.si, ev.j)
	case evCrash:
		m.handleCrash(ev.t, ev.si)
	case evDrain:
		m.handleDrain(ev.t, ev.si)
	}
}
