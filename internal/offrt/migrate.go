// Mid-flight offload migration: server-failure injection, health
// monitoring, and the checkpoint/ship/resume protocol.
//
// The paper's runtime knows exactly one answer to a dying server: abandon
// the offload and re-execute locally, paying the full task again at
// mobile speed. This layer adds the CloneCloud-style alternative — move
// the *running* computation. Server faults (slowdown, stall, crash,
// drain) are injected on the simtime clock at remote-service boundaries,
// which double as the health monitor's heartbeats. On a scheduled drain,
// a detected degradation, or a crash with a spare host available, the
// runtime checkpoints the instance (stack pointer + dirty private pages
// of the copy-on-write overlay — clean pages re-bind from the shared
// Program image on the target for free), ships the checkpoint over the
// server-to-server backhaul in the standard CRC-framed wire format, and
// resumes on the new host. The journaled remote output travels inside the
// checkpoint frame, so commit-at-return semantics survive the move.
// Local fallback remains the last resort when no viable server exists.
package offrt

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/estimate"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// The migration layer's tuning under WithMigration. One spare host stands
// by beyond the initial one: a migration or crash-retry consumes it, and
// with none left the runtime degrades to the paper's local fallback. A
// heartbeat gap counts as overrun when it exceeds healthSlack x the EWMA of
// recent gaps plus healthFloor (the floor keeps fast-beating tasks from
// flagging microscopic jitter), and healthStrikes *consecutive* overruns
// arm a migration — the hysteresis that keeps a transient slowdown from
// causing thrash.
const (
	spareHosts    = 1
	healthSlack   = 4
	healthFloor   = 2 * simtime.Millisecond
	healthStrikes = 3
)

// heartbeat runs at every remote-service boundary on the server side: it
// applies any scheduled server fault that matured since the last beat,
// feeds the health monitor, and triggers migration / abort as decided.
// The server's own service requests are the heartbeats — a stalled or
// crashed server stops making them, which is exactly how the mobile-side
// deadline machinery experiences the failure.
func (s *Session) heartbeat(op string) {
	if !s.serverPlan.Active() || s.ep.aborted {
		return
	}
	// Retroactive slowdown: the compute burst since the last beat ran on a
	// degraded host; stretch it by the scheduled factor's overlap. Output
	// is untouched — only the clock moves.
	if extra := s.serverPlan.SlowExtra(s.ep.hostID, s.ep.lastBeat, s.ep.m.Clock); extra > 0 {
		s.ep.m.AddTime(extra, interp.CompCompute)
		s.emit(obs.Event{Time: s.ep.m.Clock, Kind: obs.KServerFault, Track: obs.TrackServer,
			Name: "slow", A0: int64(s.ep.hostID), A1: int64(extra)})
	}
	// Stall: the host freezes until the window closes; the boundary simply
	// happens later.
	if until, ok := s.serverPlan.StallUntil(s.ep.hostID, s.ep.m.Clock); ok {
		d := until - s.ep.m.Clock
		s.ep.m.AddTime(d, interp.CompCompute)
		s.emit(obs.Event{Time: s.ep.m.Clock, Kind: obs.KServerFault, Track: obs.TrackServer,
			Name: "stall", A0: int64(s.ep.hostID), A1: int64(d)})
	}
	now := s.ep.m.Clock
	// Crash: all in-flight state on this host is gone — there is nothing
	// left to checkpoint. With a spare available the mobile re-sends the
	// offload from scratch there; otherwise it falls back locally.
	if s.serverPlan.CrashAt(s.ep.hostID, now) {
		s.emit(obs.Event{Time: now, Kind: obs.KServerFault, Track: obs.TrackServer,
			Name: "crash", A0: int64(s.ep.hostID)})
		if s.ep.hostID+1 < s.hosts {
			s.ep.hostID++
			s.ep.crashRetry = true
		}
		s.abortTask("server.crash")
		s.ep.lastBeat = now
		return
	}
	if s.serverPlan.DrainAt(s.ep.hostID, now) {
		// Scheduled drain: the host announces it is going away, so the
		// checkpoint can be cut cleanly. Finishing in place is not an
		// option.
		s.emit(obs.Event{Time: now, Kind: obs.KServerFault, Track: obs.TrackServer,
			Name: "drain", A0: int64(s.ep.hostID)})
		s.decideMigration("drain", false)
		s.ep.lastBeat = s.ep.m.Clock
		return
	}
	// Health monitor, on a session with a spare host (WithMigration):
	// compare this heartbeat gap against the smoothed history. K
	// consecutive overruns arm a migration; one healthy beat disarms it
	// (hysteresis against transient slowdowns).
	if s.hosts > 1 {
		gap := now - s.ep.lastBeat
		if s.ep.ewmaGap == 0 {
			s.ep.ewmaGap = float64(gap)
		} else {
			allowed := simtime.PS(healthSlack*s.ep.ewmaGap) + healthFloor
			if gap > allowed {
				s.ep.strikes++
				s.emit(obs.Event{Time: now, Kind: obs.KHealth, Track: obs.TrackServer,
					Name: op, A0: int64(gap), A1: int64(allowed), A2: int64(s.ep.strikes)})
				if s.ep.strikes >= healthStrikes {
					s.decideMigration("health", true)
				}
			} else {
				s.ep.strikes = 0
				// Only healthy gaps feed the baseline: a sustained slowdown
				// must keep looking anomalous, not redefine normal.
				s.ep.ewmaGap = float64(0.3*float64(gap)) + float64(0.7*s.ep.ewmaGap)
			}
		}
	}
	s.ep.lastBeat = s.ep.m.Clock
}

// decideMigration runs the extended Equation 1 three-way choice for the
// in-flight task and acts on it: keep going, migrate to a spare, or abort
// (which sends the mobile down the local-fallback path).
func (s *Session) decideMigration(reason string, canFinish bool) {
	if s.ep.hostID+1 >= s.hosts {
		if !canFinish {
			// Draining host, nowhere to go: the offload dies here.
			s.abortTask("server." + reason)
		}
		return
	}
	spec := s.tasks[s.ep.cur.taskID]
	// Remaining work in mobile time: the profile's prediction minus what
	// the server has already burned through (scaled back up by R).
	remaining := spec.TimePerInvocation - simtime.PS(float64(s.ep.m.Comp[interp.CompCompute])*s.est.R)
	if remaining < 0 {
		remaining = 0
	}
	slow := s.serverPlan.SlowFactor(s.ep.hostID, s.ep.m.Clock)
	backhaul := EstimateParams(s.Mobile.Spec, s.ep.m.Spec, s.backhaul)
	// Migrating's total only grows with the checkpoint's size and loses
	// ties, and finishing and falling back do not depend on it. So unless
	// migrating wins at the cost's floor, the handshake alone, it wins at no
	// size: only then is the checkpoint cut and encoded to price it.
	choice := s.est.MigrationDecision(remaining, slow, backhaul.MigrationCost(0), canFinish)
	var st *interp.State
	var wire []byte
	if choice == estimate.Migrate {
		st = s.ep.m.CheckpointState()
		msg := &Message{Kind: MsgCheckpoint, TaskID: s.ep.cur.taskID, SP: st.SP, Data: s.encodeCheckpoint(st)}
		wire = msg.Encode()
		choice = s.est.MigrationDecision(remaining, slow, backhaul.MigrationCost(int64(len(wire))), canFinish)
	}
	switch choice {
	case estimate.Finish:
		// Ride it out; demand K fresh overruns before re-deciding.
		s.ep.strikes = 0
	case estimate.Fallback:
		s.abortTask("migrate.decline")
	case estimate.Migrate:
		s.shipCheckpoint(reason, st, wire)
	}
}

// shipCheckpoint performs the migration: the encoded checkpoint frame
// crosses the backhaul, the target (which binds the shared Program image
// for free) restores it, and execution resumes there. On any protocol
// failure the offload aborts — the mobile-side deadline machinery takes
// over exactly as for a link death.
func (s *Session) shipCheckpoint(reason string, st *interp.State, wire []byte) {
	from := s.ep.hostID
	start := s.ep.m.Clock
	s.emit(obs.Event{Time: start, Kind: obs.KMigrateCheckpoint, Track: obs.TrackServer,
		A0: int64(s.ep.cur.taskID), A1: int64(st.NumPages()), A2: int64(st.Bytes())})

	// The frame crosses the backhaul for real: decode what was encoded,
	// validating frame, CRC and payload before anything is restored.
	d := s.backhaul.TransferTime(int64(len(wire)))
	got, err := Decode(wire)
	if err != nil {
		s.abortTask("migrate.ship")
		return
	}
	restored, journal, outBuf, err := s.decodeCheckpoint(got)
	if err != nil {
		s.abortTask("migrate.ship")
		return
	}
	s.ep.m.RestoreState(restored)
	// The journaled remote output and the batched-output buffer traveled
	// inside the frame; commit-at-return picks them up on the new host.
	s.ioJournal = journal
	s.ep.outBuf = outBuf

	// One resume acknowledgment back to the source completes the handoff.
	d += s.backhaul.Latency + s.backhaul.PerMessage
	s.ep.m.AddTime(d, interp.CompComm)
	s.Comp[interp.CompComm] += d

	s.ep.hostID++
	s.ep.strikes = 0
	s.ep.ewmaGap = 0
	s.Stats.Migrations++
	s.Stats.MigratedPages += st.NumPages()
	s.Stats.MigratedBytes += int64(len(wire))
	s.emit(obs.Event{Time: start, Dur: d, Kind: obs.KMigrateShip, Track: obs.TrackServer,
		A0: int64(s.ep.cur.taskID), A1: int64(len(wire))})
	s.emit(obs.Event{Time: s.ep.m.Clock, Kind: obs.KMigrateResume, Track: obs.TrackServer,
		Name: reason, A0: int64(s.ep.cur.taskID), A1: int64(from), A2: int64(s.ep.hostID)})
}

// encodeCheckpoint sub-encodes the migratable session state into a
// MsgCheckpoint Data payload, in the wire format's little-endian fields:
//
//	[8 gen][8 faults]
//	[4 nMasked] nMasked x [4 pn]
//	[4 nPages]  nPages  x [4 pn][1 dirty][PageSize data]
//	[4 nJournal] nJournal x [4 len][len bytes]
//	[4 outLen][outLen bytes]
//
// The stack pointer rides in the envelope's SP field.
func (s *Session) encodeCheckpoint(st *interp.State) []byte {
	le := binary.LittleEndian
	c := st.Mem
	b := le.AppendUint64(nil, c.Gen)
	b = le.AppendUint64(b, uint64(c.Faults))
	b = le.AppendUint32(b, uint32(len(c.Masked)))
	for _, pn := range c.Masked {
		b = le.AppendUint32(b, pn)
	}
	b = le.AppendUint32(b, uint32(len(c.Pages)))
	for _, p := range c.Pages {
		var dirty uint8
		if p.Dirty {
			dirty = 1
		}
		b = append(le.AppendUint32(b, p.PN), dirty)
		b = appendPage(b, p.Data)
	}
	b = le.AppendUint32(b, uint32(len(s.ioJournal)))
	for _, out := range s.ioJournal {
		b = append(le.AppendUint32(b, uint32(len(out))), out...)
	}
	b = le.AppendUint32(b, uint32(len(s.ep.outBuf)))
	return append(b, s.ep.outBuf...)
}

// decodeCheckpoint reverses encodeCheckpoint, validating every declared
// count against the bytes actually present. It accepts only what
// encodeCheckpoint writes, so a decoded payload re-encodes to the same
// bytes: masked and private page numbers strictly ascending, no page both
// masked and private, and each dirty flag 0 or 1. The decoded state owns
// its bytes; none alias msg.
//
// A read past the end leaves the cursor short, and every later read zero
// against nothing left, so the one check of short at the end refuses a
// payload cut anywhere.
func (s *Session) decodeCheckpoint(msg *Message) (*interp.State, []string, []byte, error) {
	r := cursor{b: msg.Data}
	c := &mem.Checkpoint{Gen: r.u64(), Faults: int(r.u64())}
	nMasked := r.u32()
	if int64(nMasked)*4 > r.rest() {
		return nil, nil, nil, fmt.Errorf("offrt: absurd masked count %d", nMasked)
	}
	for i := range nMasked {
		pn := r.u32()
		if i > 0 && pn <= c.Masked[i-1] {
			return nil, nil, nil, fmt.Errorf("offrt: checkpoint masked page %#x out of order", pn)
		}
		c.Masked = append(c.Masked, pn)
	}
	nPages := r.u32()
	if int64(nPages)*(5+mem.PageSize) > r.rest() {
		return nil, nil, nil, fmt.Errorf("offrt: absurd checkpoint page count %d", nPages)
	}
	for i := range nPages {
		pn, dirty := r.u32(), r.u8()
		if i > 0 && pn <= c.Pages[i-1].PN {
			return nil, nil, nil, fmt.Errorf("offrt: checkpoint page %#x out of order", pn)
		}
		if _, masked := slices.BinarySearch(c.Masked, pn); masked {
			return nil, nil, nil, fmt.Errorf("offrt: checkpoint page %#x is both masked and private", pn)
		}
		if dirty > 1 {
			return nil, nil, nil, fmt.Errorf("offrt: checkpoint page %#x has dirty flag %d", pn, dirty)
		}
		c.Pages = append(c.Pages, mem.CheckpointPage{PN: pn, Dirty: dirty == 1, Data: slices.Clone(r.take(mem.PageSize))})
	}
	nJournal := r.u32()
	if int64(nJournal)*4 > r.rest() {
		return nil, nil, nil, fmt.Errorf("offrt: absurd journal count %d", nJournal)
	}
	var journal []string
	for range nJournal {
		n := r.u32()
		if int64(n) > r.rest() {
			return nil, nil, nil, fmt.Errorf("offrt: journal entry overruns payload")
		}
		journal = append(journal, string(r.take(int(n))))
	}
	outLen := r.u32()
	if r.short {
		return nil, nil, nil, errTruncated
	}
	if int64(outLen) != r.rest() {
		return nil, nil, nil, fmt.Errorf("offrt: checkpoint trailing bytes: declared %d, have %d", outLen, r.rest())
	}
	var outBuf []byte
	if outLen > 0 {
		outBuf = slices.Clone(r.take(int(outLen)))
	}
	return &interp.State{SP: msg.SP, Mem: c}, journal, outBuf, nil
}
