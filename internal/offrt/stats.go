package offrt

import (
	"fmt"

	"repro/internal/simtime"
)

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
	s.Tracer.PublishDropped(m)
}
