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
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

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
	if !s.serverPlan.Active() || s.aborted {
		return
	}
	// Retroactive slowdown: the compute burst since the last beat ran on a
	// degraded host; stretch it by the scheduled factor's overlap. Output
	// is untouched — only the clock moves.
	if extra := s.serverPlan.SlowExtra(s.hostID, s.lastBeat, s.Server.Clock); extra > 0 {
		s.Server.AddTime(extra, interp.CompCompute)
		s.emit(obs.Event{Time: s.Server.Clock, Kind: obs.KServerFault, Track: obs.TrackServer,
			Name: "slow", A0: int64(s.hostID), A1: int64(extra)})
	}
	// Stall: the host freezes until the window closes; the boundary simply
	// happens later.
	if until, ok := s.serverPlan.StallUntil(s.hostID, s.Server.Clock); ok {
		d := until - s.Server.Clock
		s.Server.AddTime(d, interp.CompCompute)
		s.emit(obs.Event{Time: s.Server.Clock, Kind: obs.KServerFault, Track: obs.TrackServer,
			Name: "stall", A0: int64(s.hostID), A1: int64(d)})
	}
	now := s.Server.Clock
	// Crash: all in-flight state on this host is gone — there is nothing
	// left to checkpoint. With a spare available the mobile re-sends the
	// offload from scratch there; otherwise it falls back locally.
	if s.serverPlan.CrashAt(s.hostID, now) {
		s.emit(obs.Event{Time: now, Kind: obs.KServerFault, Track: obs.TrackServer,
			Name: "crash", A0: int64(s.hostID)})
		if s.migOn && s.hostID+1 < s.hosts {
			s.hostID++
			s.crashRetry = true
		}
		s.abortTask("server.crash")
		s.lastBeat = now
		return
	}
	if s.serverPlan.DrainAt(s.hostID, now) {
		// Scheduled drain: the host announces it is going away, so the
		// checkpoint can be cut cleanly. Finishing in place is not an
		// option.
		s.emit(obs.Event{Time: now, Kind: obs.KServerFault, Track: obs.TrackServer,
			Name: "drain", A0: int64(s.hostID)})
		s.decideMigration("drain", false)
		s.lastBeat = s.Server.Clock
		return
	}
	// Health monitor: compare this heartbeat gap against the smoothed
	// history. K consecutive overruns arm a migration; one healthy beat
	// disarms it (hysteresis against transient slowdowns).
	if s.migOn {
		gap := now - s.lastBeat
		if s.ewmaGap == 0 {
			s.ewmaGap = float64(gap)
		} else {
			allowed := simtime.PS(healthSlack*s.ewmaGap) + healthFloor
			if gap > allowed {
				s.strikes++
				s.emit(obs.Event{Time: now, Kind: obs.KHealth, Track: obs.TrackServer,
					Name: op, A0: int64(gap), A1: int64(allowed), A2: int64(s.strikes)})
				if s.strikes >= healthStrikes {
					s.decideMigration("health", true)
				}
			} else {
				s.strikes = 0
				// Only healthy gaps feed the baseline: a sustained slowdown
				// must keep looking anomalous, not redefine normal.
				s.ewmaGap = 0.3*float64(gap) + 0.7*s.ewmaGap
			}
		}
	}
	s.lastBeat = s.Server.Clock
}

// decideMigration runs the extended Equation 1 three-way choice for the
// in-flight task and acts on it: keep going, migrate to a spare, or abort
// (which sends the mobile down the local-fallback path).
func (s *Session) decideMigration(reason string, canFinish bool) {
	if !s.migOn || s.hostID+1 >= s.hosts {
		if !canFinish {
			// Draining host, nowhere to go: the offload dies here.
			s.abortTask("server." + reason)
		}
		return
	}
	st := s.Server.CheckpointState()
	payload := s.encodeCheckpoint(st)
	msg := &Message{Kind: MsgCheckpoint, TaskID: s.cur.taskID, SP: st.SP, Data: payload}
	wire := msg.Encode()

	bh := estimate.Params{
		R:            s.est.R,
		BandwidthBps: s.backhaul.BandwidthBps,
		RTT:          2 * (s.backhaul.Latency + s.backhaul.PerMessage),
	}
	cost := bh.MigrationCost(int64(len(wire)))
	spec := s.tasks[s.cur.taskID]
	// Remaining work in mobile time: the profile's prediction minus what
	// the server has already burned through (scaled back up by R).
	remaining := spec.TimePerInvocation - simtime.PS(float64(s.Server.Comp[interp.CompCompute])*s.est.R)
	if remaining < 0 {
		remaining = 0
	}
	switch s.est.MigrationDecision(remaining, s.serverPlan.SlowFactor(s.hostID, s.Server.Clock), cost, canFinish) {
	case estimate.Finish:
		// Ride it out; demand K fresh overruns before re-deciding.
		s.strikes = 0
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
	from := s.hostID
	start := s.Server.Clock
	s.emit(obs.Event{Time: start, Kind: obs.KMigrateCheckpoint, Track: obs.TrackServer,
		A0: int64(s.cur.taskID), A1: int64(st.NumPages()), A2: int64(st.Bytes())})

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
	s.Server.RestoreState(restored)
	// The journaled remote output and the batched-output buffer traveled
	// inside the frame; commit-at-return picks them up on the new host.
	s.ioJournal = journal
	s.outBuf = outBuf

	// One resume acknowledgment back to the source completes the handoff.
	d += s.backhaul.Latency + s.backhaul.PerMessage
	s.Server.AddTime(d, interp.CompComm)
	s.Comp[interp.CompComm] += d

	s.hostID++
	s.strikes = 0
	s.ewmaGap = 0
	s.Stats.Migrations++
	s.Stats.MigratedPages += st.NumPages()
	s.Stats.MigratedBytes += int64(len(wire))
	s.emit(obs.Event{Time: start, Dur: d, Kind: obs.KMigrateShip, Track: obs.TrackServer,
		A0: int64(s.cur.taskID), A1: int64(len(wire))})
	s.emit(obs.Event{Time: s.Server.Clock, Kind: obs.KMigrateResume, Track: obs.TrackServer,
		Name: reason, A0: int64(s.cur.taskID), A1: int64(from), A2: int64(s.hostID)})
}

// encodeCheckpoint sub-encodes the migratable session state into a
// MsgCheckpoint Data payload:
//
//	[8 gen][8 faults]
//	[4 nMasked] nMasked x [4 pn]
//	[4 nPages]  nPages  x [4 pn][1 dirty][PageSize data]
//	[4 nJournal] nJournal x [4 len][len bytes]
//	[4 outLen][outLen bytes]
//
// The stack pointer rides in the envelope's SP field.
func (s *Session) encodeCheckpoint(st *interp.State) []byte {
	var buf bytes.Buffer
	w := func(v interface{}) { binary.Write(&buf, binary.LittleEndian, v) }
	c := st.Mem
	w(c.Gen)
	w(int64(c.Faults))
	w(uint32(len(c.Masked)))
	for _, pn := range c.Masked {
		w(pn)
	}
	w(uint32(len(c.Pages)))
	for _, p := range c.Pages {
		w(p.PN)
		var dirty uint8
		if p.Dirty {
			dirty = 1
		}
		w(dirty)
		buf.Write(p.Data)
	}
	w(uint32(len(s.ioJournal)))
	for _, out := range s.ioJournal {
		w(uint32(len(out)))
		buf.WriteString(out)
	}
	w(uint32(len(s.outBuf)))
	buf.Write(s.outBuf)
	return buf.Bytes()
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// decodeCheckpoint reverses encodeCheckpoint, validating every declared
// count against the bytes actually present.
func (s *Session) decodeCheckpoint(msg *Message) (*interp.State, []string, []byte, error) {
	r := bytes.NewReader(msg.Data)
	rd := func(v interface{}) error { return binary.Read(r, binary.LittleEndian, v) }
	c := &mem.Checkpoint{}
	var faults int64
	var nMasked, nPages, nJournal, outLen uint32
	if err := firstErr(rd(&c.Gen), rd(&faults), rd(&nMasked)); err != nil {
		return nil, nil, nil, err
	}
	c.Faults = int(faults)
	if int64(nMasked)*4 > int64(r.Len()) {
		return nil, nil, nil, fmt.Errorf("offrt: absurd masked count %d", nMasked)
	}
	for i := uint32(0); i < nMasked; i++ {
		var pn uint32
		if err := rd(&pn); err != nil {
			return nil, nil, nil, err
		}
		c.Masked = append(c.Masked, pn)
	}
	if err := rd(&nPages); err != nil {
		return nil, nil, nil, err
	}
	if int64(nPages)*(5+mem.PageSize) > int64(r.Len()) {
		return nil, nil, nil, fmt.Errorf("offrt: absurd checkpoint page count %d", nPages)
	}
	for i := uint32(0); i < nPages; i++ {
		var pn uint32
		var dirty uint8
		if err := firstErr(rd(&pn), rd(&dirty)); err != nil {
			return nil, nil, nil, err
		}
		data := make([]byte, mem.PageSize)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, nil, nil, err
		}
		c.Pages = append(c.Pages, mem.CheckpointPage{PN: pn, Dirty: dirty == 1, Data: data})
	}
	if err := rd(&nJournal); err != nil {
		return nil, nil, nil, err
	}
	if int64(nJournal)*4 > int64(r.Len()) {
		return nil, nil, nil, fmt.Errorf("offrt: absurd journal count %d", nJournal)
	}
	var journal []string
	for i := uint32(0); i < nJournal; i++ {
		var n uint32
		if err := rd(&n); err != nil {
			return nil, nil, nil, err
		}
		if int64(n) > int64(r.Len()) {
			return nil, nil, nil, fmt.Errorf("offrt: journal entry overruns payload")
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, nil, nil, err
		}
		journal = append(journal, string(b))
	}
	if err := rd(&outLen); err != nil {
		return nil, nil, nil, err
	}
	if int64(outLen) != int64(r.Len()) {
		return nil, nil, nil, fmt.Errorf("offrt: checkpoint trailing bytes: declared %d, have %d", outLen, r.Len())
	}
	var outBuf []byte
	if outLen > 0 {
		outBuf = make([]byte, outLen)
		if _, err := io.ReadFull(r, outBuf); err != nil {
			return nil, nil, nil, err
		}
	}
	return &interp.State{SP: msg.SP, Mem: c}, journal, outBuf, nil
}
