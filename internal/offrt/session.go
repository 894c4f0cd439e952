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
// own goroutine; mobile and server strictly alternate, handing one baton
// back and forth (the mobile blocks while the server computes and vice
// versa), so execution is deterministic and both clocks live on one
// absolute timeline.
package offrt

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// TaskSpec is estimate.Task under the name the benchmark module's literals use.
type TaskSpec = estimate.Task

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

// Session couples the mobile machine to the server half of the runtime.
type Session struct {
	Mobile *interp.Machine
	Link   *netsim.Link
	Policy Policy

	// LinkStats counts wire-level traffic (bytes/messages per direction);
	// Stats aggregates the session-level offload work (pages, faults,
	// write-backs). PerTask accumulates per-task offload statistics.
	LinkStats netsim.LinkStats
	Stats     SessionStats
	PerTask   map[int]*TaskStats

	// Tracer receives structured lifecycle events; nil disables it.
	Tracer *obs.Tracer

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

	// cooldown is how long the gate stays quarantined after an abandoned
	// offload: quarantineCooldown, held per session so an in-package test
	// can stretch it.
	cooldown simtime.PS

	// ---- mid-flight migration (see migrate.go) ----

	// serverPlan is the deterministic server-fault schedule; hosts bounds
	// the endpoint's hostID: 1, or 1+spareHosts under WithMigration.
	serverPlan *faults.ServerPlan
	hosts      int
	// backhaul is the server-to-server link migration checkpoints ship
	// over; its traffic never touches the client radio's LinkStats.
	backhaul *netsim.Link

	// quarantineUntil keeps the gate declining after an abandoned offload
	// (cool-down before re-offloading).
	quarantineUntil simtime.PS

	// ioJournal holds remote output (r_printf payloads) journaled during
	// an offload and committed to the mobile environment only at
	// successful finalization (commit-at-return), so an aborted offload
	// leaves no partial output behind.
	ioJournal []string

	// readBuf holds the data of the last remote read's reply; it grows to
	// the largest read and is overwritten by the next.
	readBuf []byte

	// curJob threads the logical JobID through the session's trace:
	// every gate evaluation opens a new id (declines included — their
	// verdict instant is still that job's trace), and every event of the
	// offload's life through retries, migration and fallback carries it, so
	// the span assembler can reconstruct one causal tree per request.
	curJob int64

	// ep is the server half; closed makes shutdown idempotent.
	ep     endpoint
	closed bool

	// lastPhase is the last observed phase index of a time-varying link,
	// so linkAt can trace bandwidth regime changes exactly once.
	lastPhase int
}

// endpoint is the session's server half: the server machine, whose listen
// loop runs on a goroutine of its own, the task it serves and the host it
// serves it on. The mobile and the listen loop hand control back and forth
// over baton, so exactly one of them runs at any moment (Figure 5): the
// mobile passes the baton with a request in cur and waits; the loop passes
// it back parked at Accept, with the finalization in rep, or when RunMain
// returns, with exited and err set.
type endpoint struct {
	m     *interp.Machine
	baton chan struct{} // nil until start
	cur   request
	// rep answers cur. It stays nil until the server finalizes, so a baton
	// that comes back without one is a server that died mid-task.
	rep    *reply
	exited bool
	err    error

	// aborted marks the current offload abandoned after a terminal wire
	// failure: the server finishes the task in ghost mode (all remote
	// services handled locally, no wire traffic) and its effects are
	// discarded at finalization.
	aborted bool
	// crashRetry marks the in-progress abort as a host crash with a spare
	// standing by: the mobile should re-send the offload there instead of
	// falling back locally.
	crashRetry bool

	// outBuf accumulates batched r_printf output on the server side.
	outBuf []byte

	// hostID indexes the host the in-flight offload runs on: each
	// migration or crash-retry advances it to the next spare. The health
	// monitor keeps the last heartbeat instant, the smoothed inter-beat gap
	// and the consecutive-overrun strike count (hysteresis).
	hostID   int
	lastBeat simtime.PS
	ewmaGap  float64
	strikes  int
}

type request struct {
	taskID int32
	args   []uint64
	// arrival is when the request reaches the server; the server syncs
	// its clock to it on its own goroutine (Accept), keeping the two
	// machines free of cross-goroutine writes.
	arrival simtime.PS
	// pageTable is the decoded page table the request carried (the
	// mobile's present pages at initialization, sorted): a page absent
	// from it zero-fills on the server without any communication. Decode
	// copies it out of the frame, so it outlives the frame's recycling.
	pageTable []uint32
	// pages carries the decoded prefetch set for the server to install.
	pages []PageRecord
}

type reply struct {
	ret uint64
	// aborted means the server abandoned the task after exhausting its
	// wire retries; the mobile must re-execute locally.
	aborted bool
	// retry qualifies an abort as a server crash with a spare host
	// standing by: the mobile re-sends the offload there instead of
	// falling back to local execution.
	retry bool
}

// start runs the listen loop up to its first Accept, where it parks
// holding nothing, or to its exit.
func (e *endpoint) start() {
	e.baton = make(chan struct{})
	go func() {
		_, e.err = e.m.RunMain()
		e.exited = true
		e.baton <- struct{}{}
	}()
	<-e.baton
}

// pass hands the listen loop the baton with req as the current request and
// waits until the loop hands it back. A loop that has exited takes nothing,
// and rep stays nil.
func (e *endpoint) pass(req request) {
	e.cur, e.rep = req, nil
	if e.exited {
		return
	}
	e.baton <- struct{}{}
	<-e.baton
}

// park is the listen loop's half of pass: hand the baton back and wait for
// the next request.
func (e *endpoint) park() request {
	e.baton <- struct{}{}
	<-e.baton
	return e.cur
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

// shutdown stops the listen loop and finishes the energy timeline. It is
// idempotent, and safe after the loop exited on its own: pass hands the
// baton only to a loop that is parked at Accept.
func (s *Session) shutdown() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.ep.baton != nil {
		s.ep.pass(request{taskID: 0})
	}
	s.Recorder.Finish(s.Mobile.Clock)
	// Final component bookkeeping: mobile-side compute/fptr buckets.
	s.Comp[interp.CompCompute] += s.Mobile.Comp[interp.CompCompute]
	s.Comp[interp.CompFptr] += s.Mobile.Comp[interp.CompFptr]
	return s.ep.err
}

// RunMobile executes the mobile binary under the session, returning its
// exit code. It starts the server, runs main, and shuts the server down.
func (s *Session) RunMobile() (int32, error) {
	s.ep.start()
	code, err := s.Mobile.RunMain()
	serr := s.shutdown()
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
