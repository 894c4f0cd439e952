package offrt

import (
	"repro/internal/estimate"
	"repro/internal/interp"
	"repro/internal/obs"
)

// Gate implements the dynamic performance estimation of Section 4: it
// re-evaluates Equation 1 with the current network bandwidth, avoiding
// offload in unfavourable conditions (gzip on 802.11n is the paper's star).
func (s *Session) Gate(m *interp.Machine, taskID int32) bool {
	s.beginJob()
	if m.Clock < s.quarantineUntil {
		// Post-abort cool-down: the link just failed an offload, don't
		// trust it again yet. Overrides ForceOffload — a quarantined gate
		// is the recovery mechanism, not a policy preference.
		return s.verdict(m, taskID, "quarantine", s.est)
	}
	if s.Policy.ForceOffload {
		return s.verdict(m, taskID, "offload", s.est)
	}
	spec, ok := s.tasks[taskID]
	if !ok {
		return false
	}
	// Dynamic estimation uses the *current* network bandwidth, which is
	// the whole point of deciding at run time (Section 4): Equation 1
	// against this session's server, with no queue ahead of the task.
	est := s.est
	est.BandwidthBps = s.linkAt(m.Clock).BandwidthBps
	if !est.ProfitableQueued(spec.TimePerInvocation, spec.MemBytes, 0) {
		return s.verdict(m, taskID, "decline", est)
	}
	return s.verdict(m, taskID, "offload", est)
}

// verdict is the tail of every gate decision: trace it as a gate event
// named "offload", "decline" or "quarantine", priced with the estimator
// parameters the decision was made under (the construction-time ones for
// a quarantined or forced gate, the phase-resolved copy for the dynamic
// estimation), and book anything but an offload as a decline.
func (s *Session) verdict(m *interp.Machine, taskID int32, name string, est estimate.Params) bool {
	if s.Tracer.Enabled() {
		spec := s.tasks[taskID]
		s.emit(obs.Event{Time: m.Clock, Kind: obs.KGate, Track: obs.TrackMobile,
			Name: name, A0: int64(spec.TimePerInvocation), A1: spec.MemBytes,
			A2: est.BandwidthBps, A3: int64(est.R * 1000)})
	}
	if name == "offload" {
		return true
	}
	s.Stats.Declines++
	if st := s.PerTask[int(taskID)]; st != nil {
		st.Declines++
	}
	return false
}
