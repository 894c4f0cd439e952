package offrt

import "repro/internal/simtime"

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
