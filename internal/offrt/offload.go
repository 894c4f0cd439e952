package offrt

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// ---- SysHost: mobile side ----

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

	// The request frame is recycled: pass has installed (copied) the
	// decoded pages before the server runs, so once an attempt's reply is in
	// — or the request was never delivered — nothing aliases the frame.
	frame := getFrame()
	defer frames.Put(frame)

	// remote is set once a server's finalization delivered the result; any
	// other way out of the attempt loop ends in local re-execution.
	var ret uint64
	remote := false
	for attempt := 0; ; attempt++ {
		// --- Initialization: offloading info + prefetched heap pages, sent
		// as one batched message. ---
		req := &Message{
			Kind:      MsgOffloadRequest,
			TaskID:    taskID,
			SP:        s.Mobile.SP(),
			Args:      args,
			PageTable: s.Mobile.Mem.PresentPages(),
		}
		if !s.Policy.NoPrefetch {
			for _, pn := range req.PageTable {
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

		// The request crosses the wire for real: encode, charge the encoded
		// size, decode on the server side and install the prefetched pages.
		wire := req.AppendEncode((*frame)[:0])
		*frame = wire
		d, delivered := s.sendReliable(true, int64(len(wire)), s.Mobile.Clock, "offload.request")
		s.Recorder.Transition(s.Mobile.Clock, energy.TX)
		s.Mobile.AddTime(d, interp.CompComm)
		s.Comp[interp.CompComm] += d
		s.Recorder.Transition(s.Mobile.Clock, energy.Wait)
		st.TrafficBytes += int64(len(wire))
		if !delivered {
			// The server never saw the request; degrade to local execution
			// without involving the listen loop at all.
			break
		}

		got, err := Decode(wire)
		if err != nil {
			return 0, fmt.Errorf("offrt: init message corrupt: %w", err)
		}

		// Hand the request to the listen loop and run it until it comes
		// back with the finalization.
		s.pass(request{taskID: taskID, args: args, pageTable: got.PageTable}, got.Pages)
		rep := s.ep.rep
		if rep == nil {
			return 0, fmt.Errorf("offrt: server failed mid-task: %w", s.ep.err)
		}
		if !rep.aborted {
			ret, remote = rep.ret, true
			break
		}
		// The server abandoned the task mid-flight. A dead link cannot
		// deliver that news, so the mobile's own patience — the offload
		// deadline — is what actually expires before it re-executes. The
		// deadline is estimated at the clock instant the wait begins, so
		// it reflects the link phase actually in effect, not the regime
		// the session was constructed under.
		wait := s.offloadDeadline(spec, s.Mobile.Clock)
		s.Mobile.AddTime(wait, interp.CompComm)
		s.Comp[interp.CompComm] += wait
		if !rep.retry || attempt >= s.hosts {
			break
		}
		// The host crashed but a spare is standing by (hostID has already
		// moved): roll the I/O state back and re-send the offload from
		// scratch. The working set re-faults, the journal restarts —
		// unlike a migration, a crash leaves nothing to ship.
		s.restoreIO(ioSnap)
		s.Stats.CrashRetries++
		s.emit(obs.Event{Time: s.Mobile.Clock, Kind: obs.KRetry, Track: obs.TrackMobile,
			Name: "offload.restart", A0: int64(taskID), A1: int64(attempt + 1)})
	}

	var err error
	if !remote {
		ret, err = s.fallbackLocal(taskID, spec, args, ioSnap)
	}
	// End-to-end latency is what the user actually waited, so an offload
	// that ended in a local fallback counts with the time it burned first.
	s.Stats.E2ELatency += s.Mobile.Clock - start
	if remote {
		s.emit(obs.Event{Time: start, Dur: s.Mobile.Clock - start, Kind: obs.KOffload,
			Track: obs.TrackMobile, Name: spec.Name, A0: int64(taskID)})
	}
	return ret, err
}

// offloadDeadline is the mobile side's patience for a whole offloaded
// task: predicted server execution time plus predicted communication,
// scaled and floored like an RPC deadline. When the server abandons a task
// the link cannot tell the mobile so; this deadline is when the mobile gives
// up and falls back to local execution. Communication is predicted from the
// link phase in effect at now — a session that queued behind a fleet (or
// simply ran long on a time-varying link) must not size its patience from
// the bandwidth regime it was constructed under.
func (s *Session) offloadDeadline(spec TaskSpec, now simtime.PS) simtime.PS {
	est := s.est
	est.BandwidthBps = s.linkAt(now).BandwidthBps
	return deadline(est.RemoteTime(spec.TimePerInvocation, spec.MemBytes, 0))
}

// fallbackLocal re-executes an abandoned offload on the mobile device:
// roll the I/O state back to the pre-offload snapshot, quarantine the
// gate, and run the task's local arm (the partitioner keeps every offload
// target callable in the mobile binary — the gate diamond's else branch).
func (s *Session) fallbackLocal(taskID int32, spec TaskSpec, args []uint64, ioSnap interface{}) (uint64, error) {
	s.restoreIO(ioSnap)
	s.Stats.Fallbacks++
	s.quarantineUntil = s.Mobile.Clock + s.cooldown
	s.emit(obs.Event{Time: s.Mobile.Clock, Kind: obs.KQuarantine, Track: obs.TrackMobile,
		A0: int64(taskID), A1: int64(s.cooldown)})
	s.Recorder.Transition(s.Mobile.Clock, energy.Compute)
	f := s.Mobile.Mod.Func(spec.Name)
	if f == nil {
		return 0, fmt.Errorf("offrt: cannot fall back: no local %s in mobile binary", spec.Name)
	}
	begin := s.Mobile.Clock
	ret, err := s.Mobile.CallFunc(f, args...)
	s.emit(obs.Event{Time: begin, Dur: s.Mobile.Clock - begin, Kind: obs.KFallback,
		Track: obs.TrackMobile, Name: spec.Name, A0: int64(taskID)})
	return ret, err
}

// snapshotIO checkpoints the mobile I/O state before an offload when a
// fault injector or a server-fault plan is active (without either,
// offloads cannot abort and the snapshot would be dead weight on every
// invocation).
func (s *Session) snapshotIO() interface{} {
	if s.LinkStats.Injector == nil && !s.serverPlan.Active() {
		return nil
	}
	if sn, ok := s.Mobile.IO.(interp.IOSnapshotter); ok {
		return sn.SnapshotIO()
	}
	return nil
}

// restoreIO rolls the mobile I/O state back to a snapshotIO checkpoint
// (nil when none was taken), so a re-execution — local, or from scratch on
// a spare host — consumes the same input.
func (s *Session) restoreIO(snap interface{}) {
	if sn, ok := s.Mobile.IO.(interp.IOSnapshotter); ok && snap != nil {
		sn.RestoreIO(snap)
	}
}
