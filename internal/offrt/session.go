// Package offrt is the Native Offloader runtime (Section 4). A Session
// wires a mobile machine and a server machine to one simulated wireless
// link and drives the offloaded-task life cycle of Figure 5:
//
//	local execution -> dynamic estimation -> initialization (request +
//	prefetch, stack reallocation) -> offloading execution (copy-on-demand
//	page faults, remote I/O service, function pointer translation) ->
//	finalization (return value + compressed dirty pages write-back).
//
// The server runs the partitioned binary's real listenClient loop in its
// own goroutine; mobile and server strictly alternate (the mobile blocks
// while the server computes and vice versa), so execution is deterministic
// and both clocks live on one absolute timeline.
package offrt

import (
	"fmt"
	"sync"

	"repro/internal/energy"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// TaskSpec is what the dynamic estimator knows about one offload target.
type TaskSpec struct {
	TaskID int
	Name   string
	// Profile-predicted per-invocation execution time and memory usage,
	// the Tm and M of Equation 1.
	TimePerInvocation simtime.PS
	MemBytes          int64
}

// Policy tunes runtime behaviour.
type Policy struct {
	// DisableGate forces local execution (the paper's "local" baseline
	// runs the plain binary instead, but this is useful for tests).
	DisableGate bool
	// ForceOffload skips the dynamic estimation and always offloads.
	ForceOffload bool
	// NoCompress disables the server->mobile compression.
	NoCompress bool
	// NoPrefetch disables initialization-time prefetch; every page moves
	// through copy-on-demand instead (ablation).
	NoPrefetch bool
	// BatchOutput buffers r_printf output on the server and ships it in
	// few large messages instead of one per call — the paper's batching
	// optimization ("keeping the communicated data in a buffer and
	// sending the buffer once", Section 4).
	BatchOutput bool
}

const (

	// radioTail is how long the Wi-Fi radio stays in its high-power state
	// after servicing a request. Programs that issue remote I/O requests
	// more often than this never let the radio drop back to the 1350 mW
	// wait state — the paper's continuous 2000 mW plateau for gobmk
	// (Figure 8(b)), and the reason gobmk and twolf spend *more* battery
	// on the fast network than the slow one despite finishing sooner.
	radioTail = 150 * simtime.Millisecond
)

// Session couples the two machines.
type Session struct {
	Mobile *interp.Machine
	Server *interp.Machine
	Link   *netsim.Link
	Policy Policy

	// LinkStats counts wire-level traffic (bytes/messages per direction);
	// Stats aggregates the session-level offload work (pages, faults,
	// write-backs). PerTask accumulates per-task offload statistics.
	LinkStats netsim.LinkStats
	Stats     SessionStats
	PerTask   map[int]*TaskStats

	// Tracer receives structured lifecycle events; Metrics receives the
	// aggregated statistics at Shutdown. Both may be nil (disabled).
	Tracer  *obs.Tracer
	Metrics *obs.Metrics

	// Latency histograms, resolved once from Metrics at construction and
	// recorded at every latency-shaped site. All nil (and nil-safe) when
	// the session runs without a metrics registry.
	hFault     *obs.Histogram // remote page-fault service time
	hRPC       *obs.Histogram // reliable wire transfer round trip
	hBackoff   *obs.Histogram // retry backoff waits
	hWriteBack *obs.Histogram // finalization write-back transfer
	hE2E       *obs.Histogram // per-offload end-to-end latency

	// Comp buckets the whole-program time like Figure 7: compute, fptr,
	// remote I/O, communication.
	Comp [interp.NumComponents]simtime.PS

	// ServerCompute is the portion of Comp[CompCompute] that ran on the
	// server: the offloaded tasks' compute time at server speed. The
	// Table 4 coverage column derives from it.
	ServerCompute simtime.PS

	Recorder *energy.Recorder

	tasks map[int32]TaskSpec
	est   estimate.Params

	// topo, when set, turns the binary gate into the 3-way placement
	// decision over {local, edge, cloud} (see WithTiers).
	topo *tiers.Topology

	// load, when set, is the fleet dispatcher's live load signal: the
	// gate charges its estimated queueing delay on top of communication,
	// so a busy fleet flips marginal tasks back to local execution.
	load LoadSignal

	// rec is the failure-recovery policy (deadlines, retries, quarantine).
	rec Recovery

	// ---- mid-flight migration (see migrate.go) ----

	// serverPlan is the deterministic server-fault schedule; hostID indexes
	// the host the in-flight offload currently runs on (each migration or
	// crash-retry advances it to the next spare), hosts bounds it.
	serverPlan *faults.ServerPlan
	mig        Migration
	migOn      bool
	hostID     int
	hosts      int
	// backhaul is the server-to-server link migration checkpoints ship
	// over; its traffic never touches the client radio's LinkStats.
	backhaul *netsim.Link
	hMigrate *obs.Histogram // checkpoint ship + resume handoff time

	// Health-monitor state: last heartbeat instant, smoothed inter-beat
	// gap, and the consecutive-overrun strike count (hysteresis).
	lastBeat simtime.PS
	ewmaGap  float64
	strikes  int
	// crashRetry marks the in-progress abort as a host crash with a spare
	// standing by: the mobile should re-send the offload there instead of
	// falling back locally.
	crashRetry bool

	// aborted marks the current offload abandoned after a terminal wire
	// failure: the server finishes the task in ghost mode (all remote
	// services handled locally, no wire traffic) and its effects are
	// discarded at finalization.
	aborted bool

	// quarantineUntil keeps the gate declining after an abandoned offload
	// (cool-down before re-offloading).
	quarantineUntil simtime.PS

	// ioJournal holds remote output (r_printf payloads) journaled during
	// an offload and committed to the mobile environment only at
	// successful finalization (commit-at-return), so an aborted offload
	// leaves no partial output behind.
	ioJournal []string

	// jobSeq / curJob thread the logical JobID through the session's trace:
	// every gate evaluation opens a new id (declines included — their
	// verdict instant is still that job's trace), and every event of the
	// offload's life through retries, migration and fallback carries it, so
	// the span assembler can reconstruct one causal tree per request.
	jobSeq int64
	curJob int64

	// outBuf accumulates batched r_printf output on the server side.
	outBuf []byte

	// mobilePresent snapshots the mobile page table at initialization
	// (the paper sends the page table with the offload request): pages
	// absent there zero-fill on the server without any communication.
	mobilePresent map[uint32]bool

	// server goroutine plumbing
	reqCh chan request
	repCh chan reply
	// pendingReply holds the finalization result until the server parks
	// at the next Accept: the mobile must not resume while the server is
	// still executing its listen-loop tail, or the two simulated clocks
	// race (and so would the Go memory model).
	pendingReply *reply
	doneCh       chan error
	started      bool
	closed       bool
	inFlight     bool
	cur          request
	mu           sync.Mutex // guards started/shutdown state only

	// lastPhase is the last observed phase index of a time-varying link,
	// so linkAt can trace bandwidth regime changes exactly once.
	lastPhase int
}

// SessionStats aggregates session-level offload accounting across all
// tasks: gate outcomes, paging, faults and write-back volumes. Wire-level
// traffic lives in netsim.LinkStats — the runtime no longer keeps its
// bookkeeping inside the link's counter struct.
type SessionStats struct {
	Offloads      int
	Declines      int
	Faults        int
	DirtyPages    int
	PrefetchPages int
	// RawBytesToMobile is the pre-compression size of server->mobile
	// finalization payloads; against LinkStats.BytesToMobile it yields
	// the effective compression ratio.
	RawBytesToMobile int64
	// WriteBackWireBytes is the encoded (post-compression) size of the
	// finalization messages.
	WriteBackWireBytes int64

	// Retries counts wire retransmissions after deadline expiries or
	// checksum failures; Aborts counts offloads abandoned after the retry
	// budget was spent; Fallbacks counts local re-executions of abandoned
	// tasks (Fallbacks can exceed Aborts by failed offload requests, which
	// fall back without the server ever seeing the task).
	Retries   int
	Aborts    int
	Fallbacks int

	// E2ELatency accumulates per-offload end-to-end latency (Offload
	// entry to result in hand, simulated ps) across every offload attempt
	// — including ones that ended in a local fallback, whose latency is
	// what the user actually waited.
	E2ELatency simtime.PS

	// Migrations counts mid-flight checkpoint/ship/resume moves between
	// hosts; MigratedPages and MigratedBytes size them (dirty private
	// pages and encoded wire frames). CrashRetries counts offloads
	// re-sent from scratch to a spare host after a server crash destroyed
	// the in-flight state.
	Migrations    int
	MigratedPages int
	MigratedBytes int64
	CrashRetries  int

	// Placement outcomes of the tiered gate (WithTiers sessions only):
	// how many offload decisions the 3-way placement sent to each tier.
	EdgePlaced  int
	CloudPlaced int
}

// TaskStats is per-task accounting for Table 4 and Figure 6.
type TaskStats struct {
	Offloads int
	Declines int
	// TrafficBytes is total bytes moved (both directions) across offloads.
	TrafficBytes int64
	Faults       int
	DirtyPages   int
	PrefetchPgs  int
}

type request struct {
	taskID int32
	args   []uint64
	// arrival is when the request reaches the server; the server syncs
	// its clock to it on its own goroutine (Accept), keeping the two
	// machines free of cross-goroutine writes.
	arrival simtime.PS
	// pages carries the decoded prefetch set for the server to install.
	pages []PageRecord
}

type reply struct {
	ret uint64
	err error
	// aborted means the server abandoned the task after exhausting its
	// wire retries; the mobile must re-execute locally.
	aborted bool
	// retry qualifies an abort as a server crash with a spare host
	// standing by: the mobile re-sends the offload there instead of
	// falling back to local execution.
	retry bool
}

// debugGate, when set by tests, observes each dynamic-estimation decision.
var debugGate func(clock simtime.PS, bw int64, ok bool)

// linkAt resolves the effective link for an event at instant t (the link
// may be time-varying) and traces bandwidth regime changes exactly once.
func (s *Session) linkAt(t simtime.PS) *netsim.Link {
	if s.Tracer.Enabled() {
		if idx, bw := s.Link.PhaseAt(t); idx != s.lastPhase {
			s.lastPhase = idx
			// Link phases are a property of the session's radio environment,
			// not of whichever job happens to be in flight: unattributed.
			s.Tracer.Emit(obs.Event{Time: t, Kind: obs.KLinkPhase, Track: obs.TrackLink,
				A0: bw, A1: int64(idx)})
		}
	}
	return s.Link.At(t)
}

// resolver returns a function-pointer resolver for machine self that also
// understands addresses assigned by other (the m2s/s2m function maps of
// Section 3.4).
func (s *Session) resolver(self, other *interp.Machine) func(uint32, bool) (*ir.Func, error) {
	return func(addr uint32, mapped bool) (*ir.Func, error) {
		if f, ok := self.FuncAt(addr); ok {
			return f, nil
		}
		if of, ok := other.FuncAt(addr); ok {
			if lf := self.Mod.Func(of.Nam); lf != nil {
				return lf, nil
			}
			return nil, fmt.Errorf("offrt: function %s not present in %s binary", of.Nam, self.Name)
		}
		return nil, fmt.Errorf("offrt: no function at address 0x%x on %s", addr, self.Name)
	}
}

// Start launches the server's listen loop.
func (s *Session) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	go func() {
		_, err := s.Server.RunMain()
		if s.inFlight {
			if s.pendingReply != nil {
				// Finalized but died before parking at Accept.
				s.repCh <- *s.pendingReply
				s.pendingReply = nil
			} else {
				// The task died before SendReturn; unblock the mobile.
				s.repCh <- reply{err: fmt.Errorf("offrt: server failed mid-task: %w", err)}
			}
		}
		s.doneCh <- err
	}()
}

// Shutdown stops the server loop and finishes the energy timeline. It is
// idempotent — only the first call publishes metrics and stops the loop —
// and safe even if the server goroutine already died (e.g. after an
// aborted offload took the listen loop down): the select below never
// deadlocks on a listener that is no longer receiving.
func (s *Session) Shutdown() error {
	s.mu.Lock()
	started, closed := s.started, s.closed
	s.started, s.closed = false, true
	s.mu.Unlock()
	if closed {
		return nil
	}
	var err error
	if started {
		select {
		case s.reqCh <- request{taskID: 0}:
			err = <-s.doneCh
		case err = <-s.doneCh:
			// The server exited on its own; nothing left to stop.
		}
	}
	s.Recorder.Finish(s.Mobile.Clock)
	// Final component bookkeeping: mobile-side compute/fptr buckets.
	s.Comp[interp.CompCompute] += s.Mobile.Comp[interp.CompCompute]
	s.Comp[interp.CompFptr] += s.Mobile.Comp[interp.CompFptr]
	s.publishMetrics()
	return err
}

// publishMetrics copies the session's aggregated statistics into the
// attached metrics registry (no-op without one).
func (s *Session) publishMetrics() {
	m := s.Metrics
	if m == nil {
		return
	}
	m.Counter("link.msgs_to_server").Set(int64(s.LinkStats.MsgsToServer))
	m.Counter("link.msgs_to_mobile").Set(int64(s.LinkStats.MsgsToMobile))
	m.Counter("link.bytes_to_server").Set(s.LinkStats.BytesToServer)
	m.Counter("link.bytes_to_mobile").Set(s.LinkStats.BytesToMobile)
	m.Counter("link.comm_time_ps").Set(int64(s.LinkStats.CommTimeMobile))
	m.Counter("session.offloads").Set(int64(s.Stats.Offloads))
	m.Counter("session.declines").Set(int64(s.Stats.Declines))
	m.Counter("session.faults").Set(int64(s.Stats.Faults))
	m.Counter("session.dirty_pages").Set(int64(s.Stats.DirtyPages))
	m.Counter("session.prefetch_pages").Set(int64(s.Stats.PrefetchPages))
	m.Counter("session.writeback_raw_bytes").Set(s.Stats.RawBytesToMobile)
	m.Counter("session.writeback_wire_bytes").Set(s.Stats.WriteBackWireBytes)
	m.Counter("session.retries").Set(int64(s.Stats.Retries))
	m.Counter("session.aborts").Set(int64(s.Stats.Aborts))
	m.Counter("session.fallbacks").Set(int64(s.Stats.Fallbacks))
	m.Counter("session.e2e_latency_ps").Set(int64(s.Stats.E2ELatency))
	m.Counter("session.migrations").Set(int64(s.Stats.Migrations))
	m.Counter("session.migrated_pages").Set(int64(s.Stats.MigratedPages))
	m.Counter("session.migrated_bytes").Set(s.Stats.MigratedBytes)
	m.Counter("session.crash_retries").Set(int64(s.Stats.CrashRetries))
	if s.topo != nil {
		// Published only on tiered sessions so untiered metric summaries
		// (and their goldens) are untouched.
		m.Counter("session.tier.edge_placed").Set(int64(s.Stats.EdgePlaced))
		m.Counter("session.tier.cloud_placed").Set(int64(s.Stats.CloudPlaced))
	}
	m.Counter("faults.injected").Set(s.LinkStats.Injector.Stats().Total())
	for id, st := range s.PerTask {
		p := fmt.Sprintf("task.%d.", id)
		m.Counter(p + "offloads").Set(int64(st.Offloads))
		m.Counter(p + "declines").Set(int64(st.Declines))
		m.Counter(p + "traffic_bytes").Set(st.TrafficBytes)
		m.Counter(p + "faults").Set(int64(st.Faults))
		m.Counter(p + "dirty_pages").Set(int64(st.DirtyPages))
		m.Counter(p + "prefetch_pages").Set(int64(st.PrefetchPgs))
	}
	if d := s.Tracer.Dropped(); d > 0 {
		m.Counter("trace.dropped_events").Set(d)
	}
}

// RunMobile executes the mobile binary under the session, returning its
// exit code. It starts the server, runs main, and shuts the server down.
func (s *Session) RunMobile() (int32, error) {
	s.Start()
	code, err := s.Mobile.RunMain()
	serr := s.Shutdown()
	if err != nil {
		return code, err
	}
	return code, serr
}

// ---- SysHost: mobile side ----

// beginJob opens the next logical JobID: one per gate evaluation, carried
// by every trace event of that request's life — gate verdict, wire
// messages, retries, migration, fallback — so the span assembler can
// reconstruct one causal tree per request. The link layer stamps its own
// KMessage/KFault events through LinkStats.Job.
func (s *Session) beginJob() {
	s.jobSeq++
	s.curJob = s.jobSeq
	s.LinkStats.Job = s.curJob
}

// emit records ev attributed to the current job.
func (s *Session) emit(ev obs.Event) {
	ev.Job = s.curJob
	s.Tracer.Emit(ev)
}

// Gate implements the dynamic performance estimation of Section 4: it
// re-evaluates Equation 1 with the current network bandwidth, avoiding
// offload in unfavourable conditions (gzip on 802.11n is the paper's star).
func (s *Session) Gate(m *interp.Machine, taskID int32) bool {
	if s.Policy.DisableGate {
		return false
	}
	s.beginJob()
	if m.Clock < s.quarantineUntil {
		// Post-abort cool-down: the link just failed an offload, don't
		// trust it again yet. Overrides ForceOffload — a quarantined gate
		// is the recovery mechanism, not a policy preference.
		s.Stats.Declines++
		if st := s.PerTask[int(taskID)]; st != nil {
			st.Declines++
		}
		if s.Tracer.Enabled() {
			spec := s.tasks[taskID]
			s.emit(obs.Event{Time: m.Clock, Kind: obs.KGate, Track: obs.TrackMobile,
				Name: "quarantine", A0: int64(spec.TimePerInvocation), A1: spec.MemBytes,
				A2: s.est.BandwidthBps, A3: int64(s.est.R * 1000)})
		}
		return false
	}
	if s.Policy.ForceOffload {
		if s.Tracer.Enabled() {
			spec := s.tasks[taskID]
			s.emit(obs.Event{Time: m.Clock, Kind: obs.KGate, Track: obs.TrackMobile,
				Name: "offload", A0: int64(spec.TimePerInvocation), A1: spec.MemBytes,
				A2: s.est.BandwidthBps, A3: int64(s.est.R * 1000)})
		}
		return true
	}
	spec, ok := s.tasks[taskID]
	if !ok {
		return false
	}
	// Dynamic estimation uses the *current* network bandwidth — and, when
	// the session serves against a shared fleet, the dispatcher's current
	// queueing delay — which is the whole point of deciding at run time
	// (Section 4, generalized to shared servers). The decision itself is
	// the 3-way placement over {local, edge, cloud}: without a topology
	// the cloud option is absent and Placement reduces exactly to the
	// paper's binary ProfitableQueued gate.
	est := s.est
	est.BandwidthBps = s.linkAt(m.Clock).BandwidthBps
	var queue simtime.PS
	if s.load != nil {
		exec := spec.TimePerInvocation
		if est.R > 0 {
			exec = simtime.PS(float64(exec) / est.R)
		}
		queue = s.load.EstQueueDelay(m.Clock, exec)
	}
	edge := estimate.TierOption{OK: true, P: est, Queue: queue}
	var cloud estimate.TierOption
	if s.topo != nil {
		mode := s.topo.EffectiveMode()
		if mode != tiers.EdgeOnly {
			// The cloud prices the serial access + WAN path at the cloud
			// pool's compute ratio. No load signal reaches past the edge,
			// so the cloud queues as the elastic (uncontended) tier.
			cloud = estimate.TierOption{OK: true, P: s.topo.CloudParams(est)}
		}
		if mode == tiers.CloudOnly {
			edge.OK = false
		}
	}
	choice, _ := estimate.Placement(spec.TimePerInvocation, spec.MemBytes, edge, cloud)
	ok = choice != estimate.PlaceLocal
	if s.topo != nil {
		switch choice {
		case estimate.PlaceEdge:
			s.Stats.EdgePlaced++
		case estimate.PlaceCloud:
			s.Stats.CloudPlaced++
		}
		s.emit(obs.Event{Time: m.Clock, Kind: obs.KTierPlace, Track: obs.TrackMobile,
			Name: choice.String(), A0: int64(spec.TimePerInvocation), A1: spec.MemBytes,
			A2: int64(queue)})
	}
	if debugGate != nil {
		debugGate(m.Clock, est.BandwidthBps, ok)
	}
	if s.Tracer.Enabled() {
		name := "offload"
		if !ok {
			name = "decline"
		}
		s.emit(obs.Event{Time: m.Clock, Kind: obs.KGate, Track: obs.TrackMobile,
			Name: name, A0: int64(spec.TimePerInvocation), A1: spec.MemBytes,
			A2: est.BandwidthBps, A3: int64(est.R * 1000)})
	}
	if !ok {
		s.Stats.Declines++
		if st := s.PerTask[int(taskID)]; st != nil {
			st.Declines++
		}
	}
	return ok
}

// Offload implements the initialization / offloading execution /
// finalization phases of Figure 5 from the mobile side.
func (s *Session) Offload(m *interp.Machine, taskID int32, args []uint64) (uint64, error) {
	spec, ok := s.tasks[taskID]
	if !ok {
		return 0, fmt.Errorf("offrt: unknown task %d", taskID)
	}
	st := s.PerTask[int(taskID)]
	st.Offloads++
	s.Stats.Offloads++
	if s.curJob == 0 {
		// Offload invoked without a prior Gate (direct callers, tests):
		// the request still gets a JobID of its own.
		s.beginJob()
	}
	start := s.Mobile.Clock

	// Checkpoint the mobile I/O state while it is still untouched: if the
	// offload aborts (or crash-retries on a spare), the re-execution must
	// consume the same input.
	ioSnap := s.snapshotIO()

	for attempt := 0; ; attempt++ {
		// --- Initialization: offloading info + prefetched heap pages, sent
		// as one batched message. ---
		present := s.Mobile.Mem.PresentPages()
		req := &Message{
			Kind:      MsgOffloadRequest,
			TaskID:    taskID,
			SP:        s.Mobile.SP(),
			Args:      args,
			PageTable: present,
		}
		if !s.Policy.NoPrefetch {
			for _, pn := range present {
				addr := mem.PageAddr(pn)
				if (addr >= mem.GlobalsBase && addr < mem.GlobalsBase+0x0100_0000) ||
					(addr >= mem.HeapBase && addr < mem.HeapLimit) {
					req.Pages = append(req.Pages, PageRecord{PN: pn, Data: s.Mobile.Mem.PageData(pn)})
				}
			}
		}
		st.PrefetchPgs += len(req.Pages)
		s.Stats.PrefetchPages += len(req.Pages)
		s.emit(obs.Event{Time: s.Mobile.Clock, Kind: obs.KPrefetch, Track: obs.TrackMobile,
			A0: int64(len(req.Pages)), A1: int64(len(req.Pages)) * mem.PageSize})
		s.mobilePresent = make(map[uint32]bool)
		for _, pn := range present {
			s.mobilePresent[pn] = true
		}

		// The request crosses the wire for real: encode, charge the encoded
		// size, decode on the server side and install the prefetched pages.
		wire := req.Encode()
		d, sendErr := s.sendReliable(true, int64(len(wire)), s.Mobile.Clock, "offload.request")
		s.Recorder.Transition(s.Mobile.Clock, energy.TX)
		s.Mobile.AddTime(d, interp.CompComm)
		s.Comp[interp.CompComm] += d
		s.Recorder.Transition(s.Mobile.Clock, energy.Wait)
		st.TrafficBytes += int64(len(wire))
		if sendErr != nil {
			// The server never saw the request; degrade to local execution
			// without involving the listen loop at all.
			ret, err := s.fallbackLocal(taskID, spec, args, ioSnap)
			s.Stats.E2ELatency += s.Mobile.Clock - start
			s.hE2E.Record(int64(s.Mobile.Clock - start))
			return ret, err
		}

		got, err := Decode(wire)
		if err != nil {
			return 0, fmt.Errorf("offrt: init message corrupt: %w", err)
		}

		// Hand the request to the listen loop and wait for finalization. All
		// server-side state (clock sync, page install, dirty tracking) is
		// applied by Accept on the server's own goroutine.
		s.inFlight = true
		s.reqCh <- request{taskID: taskID, args: args, arrival: s.Mobile.Clock, pages: got.Pages}
		rep := <-s.repCh
		s.inFlight = false
		if rep.err != nil {
			return 0, rep.err
		}
		if rep.aborted {
			// The server abandoned the task mid-flight. A dead link cannot
			// deliver that news, so the mobile's own patience — the offload
			// deadline — is what actually expires before it re-executes. The
			// deadline is estimated at the clock instant the wait begins, so
			// it reflects the link phase actually in effect, not the regime
			// the session was constructed under.
			wait := s.offloadDeadline(spec, s.Mobile.Clock)
			s.Mobile.AddTime(wait, interp.CompComm)
			s.Comp[interp.CompComm] += wait
			if rep.retry && attempt < s.hosts {
				// The host crashed but a spare is standing by (hostID has
				// already moved): roll the I/O state back and re-send the
				// offload from scratch. The working set re-faults, the
				// journal restarts — unlike a migration, a crash leaves
				// nothing to ship.
				if ioSnap != nil {
					if sn, ok := s.Mobile.IO.(interp.IOSnapshotter); ok {
						sn.RestoreIO(ioSnap)
					}
				}
				s.Stats.CrashRetries++
				s.emit(obs.Event{Time: s.Mobile.Clock, Kind: obs.KRetry, Track: obs.TrackMobile,
					Name: "offload.restart", A0: int64(taskID), A1: int64(attempt + 1)})
				continue
			}
			ret, err := s.fallbackLocal(taskID, spec, args, ioSnap)
			s.Stats.E2ELatency += s.Mobile.Clock - start
			s.hE2E.Record(int64(s.Mobile.Clock - start))
			return ret, err
		}
		s.Stats.E2ELatency += s.Mobile.Clock - start
		s.hE2E.Record(int64(s.Mobile.Clock - start))
		s.emit(obs.Event{Time: start, Dur: s.Mobile.Clock - start, Kind: obs.KOffload,
			Track: obs.TrackMobile, Name: spec.Name, A0: int64(taskID)})
		return rep.ret, nil
	}
}

// ---- SysHost: server side ----

// Accept implements the server's blocking accept. It first releases the
// mobile side with any pending finalization reply, so the server is fully
// quiescent (parked here) whenever the mobile executes.
func (s *Session) Accept(m *interp.Machine) int32 {
	if s.pendingReply != nil {
		r := *s.pendingReply
		s.pendingReply = nil
		s.repCh <- r
	}
	req := <-s.reqCh
	s.cur = req
	if req.taskID == 0 {
		return 0
	}
	// Initialization, server side: the machine was idle-waiting, so its
	// clock jumps to the request arrival; the prefetched pages and fresh
	// dirty tracking come with it (Figure 5 "Initialization").
	s.Server.Clock = simtime.Max(s.Server.Clock, req.arrival)
	for _, p := range req.pages {
		s.Server.Mem.InstallPage(p.PN, p.Data)
	}
	s.Server.Mem.TrackDirty = true
	s.Server.Mem.ClearDirty()
	// Arm the health monitor for this task and apply any server fault that
	// already matured — a request landing on a crashed or stalled host
	// finds out here, not at its first remote service.
	s.lastBeat = s.Server.Clock
	s.ewmaGap, s.strikes = 0, 0
	s.heartbeat("accept")
	return req.taskID
}

// Arg returns argument i of the current request.
func (s *Session) Arg(m *interp.Machine, i int32) uint64 {
	if int(i) < len(s.cur.args) {
		return s.cur.args[i]
	}
	return 0
}

// SendReturn implements finalization: the server sends the return value,
// the dirty pages, and the updated page table back in one batched,
// compressed message, then drops its copy of the offloading data. The
// write-back is journaled: the whole frame is validated (checksum,
// structure, decompression) before the first page is installed on the
// mobile device, so a corrupted or partial finalization never taints
// unified memory (commit-at-return).
func (s *Session) SendReturn(m *interp.Machine, v uint64) error {
	s.heartbeat("return")
	if s.aborted {
		return s.finishAborted()
	}
	dirty := s.Server.Mem.DirtyPages()
	st := s.PerTask[int(s.cur.taskID)]
	if st != nil {
		st.DirtyPages += len(dirty)
		st.Faults += s.Server.Mem.Faults
	}
	s.Stats.DirtyPages += len(dirty)
	s.Stats.Faults += s.Server.Mem.Faults

	if err := s.flushOutput(); err != nil {
		return err
	}
	if s.aborted {
		// The batched-output flush exhausted its retries.
		return s.finishAborted()
	}
	fin := &Message{Kind: MsgFinalize, TaskID: s.cur.taskID, Ret: v,
		PageTable: s.Server.Mem.PresentPages()}
	for _, pn := range dirty {
		fin.Pages = append(fin.Pages, PageRecord{PN: pn, Data: s.Server.Mem.PageData(pn)})
	}
	var raw int64
	if !s.Policy.NoCompress && len(fin.Pages) > 0 {
		// Compression runs on the server only (Section 4): it is far
		// cheaper there than decompression is on the mobile device.
		var err error
		raw, err = fin.CompressPages()
		if err != nil {
			return err
		}
		// Server-side compression throughput ~1 GB/s: 1 ns per byte.
		s.Server.AddTime(simtime.PS(raw)*simtime.Nanosecond, interp.CompComm)
	} else {
		raw = int64(len(fin.Pages)) * (mem.PageSize + 4)
	}
	s.Stats.RawBytesToMobile += raw

	wireBytes := fin.Encode()
	wire := int64(len(wireBytes))
	d, sendErr := s.sendReliable(false, wire, s.Server.Clock, "finalize")
	if sendErr != nil {
		s.Server.AddTime(d, interp.CompComm)
		s.abortTask("finalize")
		return s.finishAborted()
	}
	s.Stats.WriteBackWireBytes += wire
	s.hWriteBack.Record(int64(d))
	s.emit(obs.Event{Time: s.Server.Clock, Dur: d, Kind: obs.KWriteBack,
		Track: obs.TrackServer, A0: int64(len(dirty)), A1: raw, A2: wire})
	if st != nil {
		st.TrafficBytes += wire
	}

	// Validate the complete write-back, then commit it atomically on the
	// mobile device together with the journaled remote output, and
	// synchronize clocks: the mobile resumes when the finalization
	// message has arrived.
	decoded, err := Decode(wireBytes)
	if err != nil {
		return fmt.Errorf("offrt: finalize message corrupt: %w", err)
	}
	pages, err := decoded.DecompressPages()
	if err != nil {
		return fmt.Errorf("offrt: finalize payload corrupt: %w", err)
	}
	s.commitJournal(pages)
	arrive := s.Server.Clock + d
	if arrive > s.Mobile.Clock {
		gap := arrive - s.Mobile.Clock
		s.Mobile.AddTime(gap, interp.CompComm)
	}
	s.Recorder.Pulse(arrive-d, d, energy.RX)
	s.Recorder.Transition(s.Mobile.Clock, energy.Compute)
	s.Comp[interp.CompComm] += d

	// Figure 7 attribution: the server's compute/fptr time happened while
	// the mobile device waited; fold it into the session buckets.
	s.ServerCompute += s.Server.Comp[interp.CompCompute]
	s.Comp[interp.CompCompute] += s.Server.Comp[interp.CompCompute]
	s.Comp[interp.CompFptr] += s.Server.Comp[interp.CompFptr]
	s.Comp[interp.CompRemoteIO] += s.Server.Comp[interp.CompRemoteIO]
	for i := range s.Server.Comp {
		s.Server.Comp[i] = 0
	}

	// Terminate the offloading process without keeping the data
	// (Section 4): drop every server page so the next offload starts
	// cold, as in the paper's repeated-invocation traffic numbers.
	for _, pn := range s.Server.Mem.PresentPages() {
		s.Server.Mem.Drop(pn)
	}
	s.Server.Mem.Faults = 0
	s.Server.Mem.TrackDirty = false

	s.pendingReply = &reply{ret: decoded.Ret}
	return nil
}

// servePageFault is the copy-on-demand path: the server stalls for a
// round trip while the mobile device serves the page.
func (s *Session) servePageFault(pn uint32) ([]byte, error) {
	s.heartbeat("page")
	if !s.mobilePresent[pn] {
		// The page table shipped at initialization says this page does
		// not exist on the mobile device: zero-fill locally, no traffic.
		if !s.aborted {
			s.emit(obs.Event{Time: s.Server.Clock, Kind: obs.KPageFault,
				Track: obs.TrackServer, Name: "zero-fill",
				A0: int64(pn), A1: int64(mem.PageAddr(pn))})
		}
		return nil, nil
	}
	if s.aborted {
		// Ghost mode: serve the page in-process so the abandoned task can
		// run to completion; its results are discarded at finalization.
		return s.Mobile.Mem.PageData(pn), nil
	}
	reqMsg := &Message{Kind: MsgPageRequest, Addr: mem.PageAddr(pn)}
	respMsg := &Message{Kind: MsgPageData,
		Pages: []PageRecord{{PN: pn, Data: s.Mobile.Mem.PageData(pn)}}}
	req, rerr := s.sendReliable(false, reqMsg.WireSize(), s.Server.Clock, "page.request")
	if rerr != nil {
		s.Server.AddTime(req, interp.CompComm)
		s.abortTask("page.request")
		return s.Mobile.Mem.PageData(pn), nil
	}
	resp, rerr := s.sendReliable(true, respMsg.WireSize(), s.Server.Clock+req, "page.data")
	if rerr != nil {
		s.Server.AddTime(req+resp, interp.CompComm)
		s.abortTask("page.data")
		return s.Mobile.Mem.PageData(pn), nil
	}
	data := respMsg.Pages[0].Data
	s.hFault.Record(int64(req + resp))
	s.emit(obs.Event{Time: s.Server.Clock, Dur: req + resp, Kind: obs.KPageFault,
		Track: obs.TrackServer, Name: "remote",
		A0: int64(pn), A1: int64(mem.PageAddr(pn)),
		A2: reqMsg.WireSize() + respMsg.WireSize()})
	if st := s.PerTask[int(s.cur.taskID)]; st != nil {
		st.TrafficBytes += reqMsg.WireSize() + respMsg.WireSize()
	}
	// The mobile radio pulses: receive the request, transmit the page.
	s.Recorder.Pulse(s.Server.Clock+req, resp, energy.TX)
	s.Server.AddTime(req+resp, interp.CompComm)
	s.Comp[interp.CompComm] += req + resp
	return data, nil
}

// ---- SysHost: remote I/O (Section 3.4) ----

// RemoteWrite ships r_printf output to the mobile device, where it is
// journaled and committed at successful finalization (commit-at-return).
func (s *Session) RemoteWrite(m *interp.Machine, out string) error {
	s.heartbeat("printf")
	if s.aborted {
		// Ghost mode: the output would be discarded at finalization
		// anyway; the local re-execution reproduces it.
		return nil
	}
	if s.Policy.BatchOutput {
		s.outBuf = append(s.outBuf, out...)
		if len(s.outBuf) >= 8<<10 {
			return s.flushOutput()
		}
		return nil
	}
	msg := &Message{Kind: MsgRemoteWrite, Data: []byte(out)}
	d, sendErr := s.sendReliable(false, msg.WireSize(), s.Server.Clock, "remote.printf")
	if sendErr != nil {
		s.Server.AddTime(d, interp.CompRemoteIO)
		s.abortTask("remote.printf")
		return nil
	}
	s.emit(obs.Event{Time: s.Server.Clock, Dur: d, Kind: obs.KRemoteIO,
		Track: obs.TrackServer, Name: "printf", A0: int64(len(out))})
	s.addTaskTraffic(int64(len(out)))
	s.Recorder.Pulse(s.Server.Clock, d+radioTail, energy.IOServe)
	s.Server.AddTime(d, interp.CompRemoteIO)
	s.ioJournal = append(s.ioJournal, out)
	return nil
}

// flushOutput ships the batched r_printf buffer as one message.
func (s *Session) flushOutput() error {
	if len(s.outBuf) == 0 {
		return nil
	}
	if s.aborted {
		s.outBuf = nil
		return nil
	}
	msg := &Message{Kind: MsgRemoteWrite, Data: s.outBuf}
	d, sendErr := s.sendReliable(false, msg.WireSize(), s.Server.Clock, "remote.printf")
	if sendErr != nil {
		s.Server.AddTime(d, interp.CompRemoteIO)
		s.abortTask("remote.printf")
		s.outBuf = nil
		return nil
	}
	s.emit(obs.Event{Time: s.Server.Clock, Dur: d, Kind: obs.KRemoteIO,
		Track: obs.TrackServer, Name: "printf", A0: int64(len(s.outBuf))})
	s.addTaskTraffic(int64(len(s.outBuf)))
	s.Recorder.Pulse(s.Server.Clock, d+radioTail, energy.IOServe)
	s.Server.AddTime(d, interp.CompRemoteIO)
	s.ioJournal = append(s.ioJournal, string(s.outBuf))
	s.outBuf = nil
	return nil
}

// RemoteOpen opens a file in the mobile environment (round trip).
func (s *Session) RemoteOpen(m *interp.Machine, name string) (int32, error) {
	s.heartbeat("open")
	if s.aborted {
		return s.Mobile.IO.Open(name)
	}
	req := &Message{Kind: MsgRemoteOpen, Data: []byte(name)}
	resp := &Message{Kind: MsgRemoteOpenResp}
	d, sendErr := s.sendReliable(false, req.WireSize(), s.Server.Clock, "remote.open")
	if sendErr == nil {
		var dr simtime.PS
		dr, sendErr = s.sendReliable(true, resp.WireSize(), s.Server.Clock+d, "remote.open")
		d += dr
	}
	if sendErr != nil {
		s.Server.AddTime(d, interp.CompRemoteIO)
		s.abortTask("remote.open")
		return s.Mobile.IO.Open(name)
	}
	s.emit(obs.Event{Time: s.Server.Clock, Dur: d, Kind: obs.KRemoteIO,
		Track: obs.TrackServer, Name: "open", A0: int64(len(name))})
	s.Recorder.Pulse(s.Server.Clock, d+radioTail, energy.IOServe)
	s.Server.AddTime(d, interp.CompRemoteIO)
	return s.Mobile.IO.Open(name)
}

// RemoteRead is a remote input operation: it needs a full round trip plus
// the data transfer, which is why twolf/gobmk/h264ref show large remote I/O
// overheads (Section 5.1).
func (s *Session) RemoteRead(m *interp.Machine, fd int32, n int) ([]byte, error) {
	s.heartbeat("read")
	data, err := s.Mobile.IO.Read(fd, n)
	if err != nil {
		return nil, err
	}
	if s.aborted {
		return data, nil
	}
	req := &Message{Kind: MsgRemoteRead, FD: fd, N: int32(n)}
	resp := &Message{Kind: MsgRemoteReadResp, Data: data}
	d, sendErr := s.sendReliable(false, req.WireSize(), s.Server.Clock, "remote.read")
	if sendErr == nil {
		var dr simtime.PS
		dr, sendErr = s.sendReliable(true, resp.WireSize(), s.Server.Clock+d, "remote.read")
		d += dr
	}
	if sendErr != nil {
		s.Server.AddTime(d, interp.CompRemoteIO)
		s.abortTask("remote.read")
		return data, nil
	}
	s.emit(obs.Event{Time: s.Server.Clock, Dur: d, Kind: obs.KRemoteIO,
		Track: obs.TrackServer, Name: "read", A0: int64(len(data))})
	s.addTaskTraffic(int64(len(data)))
	s.Recorder.Pulse(s.Server.Clock, d+radioTail, energy.IOServe)
	s.Server.AddTime(d, interp.CompRemoteIO)
	return data, nil
}

// RemoteClose closes a mobile-side file.
func (s *Session) RemoteClose(m *interp.Machine, fd int32) error {
	s.heartbeat("close")
	if s.aborted {
		return s.Mobile.IO.Close(fd)
	}
	msg := &Message{Kind: MsgRemoteClose, FD: fd}
	d, sendErr := s.sendReliable(false, msg.WireSize(), s.Server.Clock, "remote.close")
	if sendErr != nil {
		s.Server.AddTime(d, interp.CompRemoteIO)
		s.abortTask("remote.close")
		return s.Mobile.IO.Close(fd)
	}
	s.emit(obs.Event{Time: s.Server.Clock, Dur: d, Kind: obs.KRemoteIO,
		Track: obs.TrackServer, Name: "close"})
	s.Recorder.Pulse(s.Server.Clock, d+radioTail, energy.IOServe)
	s.Server.AddTime(d, interp.CompRemoteIO)
	return s.Mobile.IO.Close(fd)
}

// addTaskTraffic attributes remote-I/O bytes to the current task's traffic
// (Table 4 counts all communication, including remote I/O payloads).
func (s *Session) addTaskTraffic(n int64) {
	if st := s.PerTask[int(s.cur.taskID)]; st != nil {
		st.TrafficBytes += n
	}
}

var _ interp.SysHost = (*Session)(nil)
