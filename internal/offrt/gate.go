package offrt

import (
	"repro/internal/estimate"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/tiers"
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
	// the whole point of deciding at run time (Section 4). The decision
	// itself is the 3-way placement over {local, edge, cloud}: without a
	// topology the cloud option is absent and Placement reduces exactly to
	// the paper's binary gate (ProfitableQueued with an empty queue).
	est := s.est
	est.BandwidthBps = s.linkAt(m.Clock).BandwidthBps
	edge := estimate.TierOption{OK: true, P: est}
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
	if s.topo != nil {
		switch choice {
		case estimate.PlaceEdge:
			s.Stats.EdgePlaced++
		case estimate.PlaceCloud:
			s.Stats.CloudPlaced++
		}
		s.emit(obs.Event{Time: m.Clock, Kind: obs.KTierPlace, Track: obs.TrackMobile,
			Name: choice.String(), A0: int64(spec.TimePerInvocation), A1: spec.MemBytes})
	}
	if choice == estimate.PlaceLocal {
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
