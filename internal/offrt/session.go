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

	// cooldown is how long the gate stays quarantined after an abandoned
	// offload: quarantineCooldown, held per session so an in-package test
	// can stretch it.
	cooldown simtime.PS

	// ---- mid-flight migration (see migrate.go) ----

	// serverPlan is the deterministic server-fault schedule; hostID indexes
	// the host the in-flight offload currently runs on (each migration or
	// crash-retry advances it to the next spare), hosts bounds it.
	serverPlan *faults.ServerPlan
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

	// curJob threads the logical JobID through the session's trace:
	// every gate evaluation opens a new id (declines included — their
	// verdict instant is still that job's trace), and every event of the
	// offload's life through retries, migration and fallback carries it, so
	// the span assembler can reconstruct one causal tree per request.
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

// beginJob opens the next logical JobID: one per gate evaluation, carried
// by every trace event of that request's life — gate verdict, wire
// messages, retries, migration, fallback — so the span assembler can
// reconstruct one causal tree per request. The link layer stamps its own
// KMessage/KFault events through LinkStats.Job.
func (s *Session) beginJob() {
	s.curJob++
	s.LinkStats.Job = s.curJob
}

// emit records ev attributed to the current job.
func (s *Session) emit(ev obs.Event) {
	ev.Job = s.curJob
	s.Tracer.Emit(ev)
}

// MemDigest hashes the mobile device's final semantic memory: globals and
// heap, with both stack regions excluded. Whether a task ran remotely (its
// frames on the server stack, written back as dirty pages) or locally (on
// the mobile stack), the dead residue below the stack tops differs while
// the program's observable memory is identical — so equivalence checks
// between faulted and fault-free runs compare this digest.
func (s *Session) MemDigest() uint64 {
	return s.Mobile.Mem.Digest(mem.StackRanges()...)
}
