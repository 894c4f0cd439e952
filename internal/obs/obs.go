// Package obs is the offload-session observability layer: a low-overhead
// structured event tracer threaded through the whole pipeline (runtime,
// network simulator, interpreter, energy model), plus the log-bucketed
// latency histogram the fleet simulator keeps its queue waits in.
//
// The paper's evaluation (Figures 6-8) is entirely about *explaining* where
// time and energy go during an offload — communication vs. computation,
// radio power plateaus, prefetch vs. copy-on-demand. Every session
// lifecycle event (gate decision with its Equation-1 inputs, page fault,
// prefetch batch, dirty-page write-back, remote-I/O round trip, radio
// power-state transition, link phase change) is recorded with its
// simtime.PS timestamp into a bounded ring buffer, and can be exported as
// Chrome trace_event JSON (chrome://tracing, Perfetto) or replayed into
// breakdowns and latency tables (package analyze).
//
// Tracing is nil-safe and allocation-free: every method on a nil *Tracer
// is a no-op, so instrumented hot paths (the copy-on-demand page-fault
// service above all) cost nothing when observability is disabled. Events
// are fixed-size values and the ring is preallocated, so even an *enabled*
// tracer does not allocate per event.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/simtime"
)

// Track identifies the timeline an event belongs to; the Chrome exporter
// renders one thread per track.
type Track uint8

const (
	// TrackMobile is the mobile device's execution timeline.
	TrackMobile Track = iota
	// TrackServer is the server's execution timeline.
	TrackServer
	// TrackLink carries wire messages and bandwidth phase changes.
	TrackLink
	// TrackRadio carries the mobile radio power-state timeline.
	TrackRadio
	// TrackFleet carries the server-fleet scheduler: dispatch decisions,
	// queue waits and admission sheds.
	TrackFleet
	// TrackEdge and TrackCloud carry per-tier execution segments of the
	// tiered fleet (queue waits and service intervals of retained exemplar
	// jobs), so a job's flow renders across client -> edge -> cloud.
	TrackEdge
	TrackCloud
	numTracks
)

func (t Track) String() string {
	return [...]string{"mobile", "server", "link", "radio", "fleet", "edge", "cloud"}[t]
}

// Kind is the event taxonomy. Each kind documents the meaning of the
// generic argument slots A0..A3 (see kindMeta for the exported names).
type Kind uint8

const (
	// KGate is one dynamic-estimation decision (Equation 1). Name is
	// "offload" or "decline"; A0=Tm (ps), A1=M (bytes), A2=BW (bps),
	// A3=R*1000.
	KGate Kind = iota
	// KOffload spans one whole offload session on the mobile timeline
	// (initialization through finalization). A0=task id.
	KOffload
	// KPrefetch is the initialization-time page batch. A0=pages, A1=bytes.
	KPrefetch
	// KPageFault is one copy-on-demand fault service on the server. Name is
	// "remote" (round trip to the mobile device) or "zero-fill"; A0=page
	// number, A1=page address, A2=wire bytes.
	KPageFault
	// KWriteBack is the finalization dirty-page write-back. A0=dirty pages,
	// A1=raw (pre-compression) bytes, A2=wire bytes.
	KWriteBack
	// KRemoteIO is one remote I/O service operation; Name is the operation
	// ("printf", "open", "read", "close"). A0=payload bytes.
	KRemoteIO
	// KMessage is one wire message; Name is "to_server" or "to_mobile".
	// A0=bytes.
	KMessage
	// KRadio is one maximal radio power-state interval; Name is the energy
	// state ("compute", "wait", "rx", "tx", "ioserve", "idle").
	KRadio
	// KLinkPhase marks a bandwidth regime change of a time-varying link.
	// A0=bandwidth (bps), A1=phase index.
	KLinkPhase
	// KTaskEnter/KTaskExit bracket the offloaded task's execution on the
	// server timeline. A0=task id.
	KTaskEnter
	KTaskExit
	// KFault is one injected link fault. Name is the fault kind ("drop",
	// "corrupt", "delay", "outage"); A0=message bytes, A1=added delay (ps).
	KFault
	// KRetry is one wire retransmission after a deadline expiry or checksum
	// failure. Name is the RPC being retried; A0=attempt number, A1=backoff
	// (ps).
	KRetry
	// KAbort marks the runtime giving up on an offload after exhausting
	// retries. Name is the RPC that failed; A0=task id.
	KAbort
	// KFallback spans the local re-execution of an abandoned offload on the
	// mobile timeline. A0=task id.
	KFallback
	// KQuarantine marks the gate entering its post-abort cool-down.
	// A0=task id, A1=cool-down length (ps).
	KQuarantine
	// KDispatch is one fleet dispatch decision: a client's offload request
	// routed to a server. Name is the load-balancing policy; A0=client,
	// A1=server, A2=queue depth at dispatch, A3=estimated wait (ps).
	KDispatch
	// KQueue is one queued request leaving a server's run queue for a free
	// slot, charging its queueing delay. A0=client, A1=server, A2=wait (ps).
	KQueue
	// KShed is one offload request rejected by admission control and sent
	// down the local-fallback path. A0=client, A1=server, A2=queue depth.
	KShed
	// KServerFault is one injected server fault taking effect. Name is the
	// fault kind ("slow", "stall", "crash", "drain"); A0=server,
	// A1=added/stalled time (ps).
	KServerFault
	// KHealth is one health-monitor deadline overrun observed at a
	// heartbeat boundary. A0=observed gap (ps), A1=allowed gap (ps),
	// A2=consecutive overruns so far.
	KHealth
	// KMigrateCheckpoint marks the in-flight offload's state being
	// snapshotted on the degraded server. A0=task id, A1=pages shipped,
	// A2=payload bytes.
	KMigrateCheckpoint
	// KMigrateShip spans the checkpoint transfer to the new server.
	// A0=task id, A1=wire bytes.
	KMigrateShip
	// KMigrateResume marks execution resuming on the new server instance.
	// Name is the migration reason ("crash", "drain", "health", "forced");
	// A0=task id, A1=source host, A2=target host.
	KMigrateResume
	// KTierPlace is one 3-way placement decision of the tiered fleet.
	// Name is the chosen tier ("local", "edge", "cloud"); A0=client,
	// A1=server picked (-1 for local), A2=estimated completion (ps),
	// A3=charged queue delay (ps).
	KTierPlace
	// KTierMigrate is one cross-tier move of an offload over the WAN, a
	// saturated edge's arrival demoted to the cloud. Name is "demote";
	// A0=client, A1=from server, A2=to server, A3=ship time (ps).
	KTierMigrate
	// KJob spans one whole fleet job from its decision instant to the
	// result in hand — the root of a retained exemplar's span tree, and
	// the cheap per-job summary every completion emits. Name is the
	// outcome ("offload", "decline", "shed", "fallback"); A0=client,
	// A1=final server (-1 local), A2=Tm (ps), A3=M (bytes). Dur is the
	// job's end-to-end latency, the exact quantity Stats records.
	KJob
	// KJobSeg is one causally-ordered critical-path segment of a retained
	// exemplar job: the segments of a job partition its KJob span exactly.
	// Name is the segment ("gate", "uplink", "queue", "run", "reply",
	// "wan.ship", "fault.detect", "resend", "run.lost", "shed.notice",
	// "deadline.wait", "local.exec"); A0=client, A1=server (-1 n/a).
	KJobSeg
	numKinds
)

// kindMeta names each kind and its argument slots for the exporters.
var kindMeta = [numKinds]struct {
	name string
	args [4]string
}{
	KGate:      {"gate", [4]string{"tm_ps", "mem_bytes", "bw_bps", "r_milli"}},
	KOffload:   {"offload", [4]string{"task", "", "", ""}},
	KPrefetch:  {"prefetch", [4]string{"pages", "bytes", "", ""}},
	KPageFault: {"page_fault", [4]string{"page", "addr", "wire_bytes", ""}},
	KWriteBack: {"write_back", [4]string{"dirty_pages", "raw_bytes", "wire_bytes", ""}},
	KRemoteIO:  {"remote_io", [4]string{"bytes", "", "", ""}},
	KMessage:   {"msg", [4]string{"bytes", "", "", ""}},
	KRadio:     {"radio", [4]string{"", "", "", ""}},
	KLinkPhase: {"link_phase", [4]string{"bw_bps", "phase", "", ""}},
	KTaskEnter: {"task", [4]string{"task", "", "", ""}},
	// The exporter names E records "task" itself (Chrome ignores them);
	// the meta name stays unique so the taxonomy lint can hold.
	KTaskExit: {"task.exit", [4]string{"", "", "", ""}},

	KFault:      {"fault.injected", [4]string{"bytes", "delay_ps", "", ""}},
	KRetry:      {"rpc.retry", [4]string{"attempt", "backoff_ps", "", ""}},
	KAbort:      {"offload.abort", [4]string{"task", "", "", ""}},
	KFallback:   {"fallback.local", [4]string{"task", "", "", ""}},
	KQuarantine: {"gate.quarantine", [4]string{"task", "cooldown_ps", "", ""}},

	KDispatch: {"fleet.dispatch", [4]string{"client", "server", "queue_depth", "est_wait_ps"}},
	KQueue:    {"fleet.queue", [4]string{"client", "server", "wait_ps", ""}},
	KShed:     {"fleet.shed", [4]string{"client", "server", "queue_depth", ""}},

	KServerFault:       {"server.fault", [4]string{"server", "added_ps", "", ""}},
	KHealth:            {"health.overrun", [4]string{"gap_ps", "allowed_ps", "strikes", ""}},
	KMigrateCheckpoint: {"migrate.checkpoint", [4]string{"task", "pages", "bytes", ""}},
	KMigrateShip:       {"migrate.ship", [4]string{"task", "wire_bytes", "", ""}},
	KMigrateResume:     {"migrate.resume", [4]string{"task", "from_host", "to_host", ""}},
	KTierPlace:         {"tier.place", [4]string{"client", "server", "est_ps", "wait_ps"}},
	KTierMigrate:       {"tier.migrate", [4]string{"client", "from_server", "to_server", "ship_ps"}},

	KJob:    {"job", [4]string{"client", "server", "tm_ps", "mem_bytes"}},
	KJobSeg: {"job.seg", [4]string{"client", "server", "", ""}},
}

func (k Kind) String() string { return kindMeta[k].name }

// Event is one recorded occurrence. It is a fixed-size value so the ring
// buffer stores it without indirection; Name must be a static (or
// long-lived) string — instrumentation sites pass constants.
type Event struct {
	// Time is the event start on the simulated timeline.
	Time simtime.PS
	// Dur, when positive, makes this a complete span; zero is an instant.
	Dur   simtime.PS
	Kind  Kind
	Track Track
	// Name refines the kind ("offload"/"decline", an I/O op, a radio state).
	Name string
	// A0..A3 are kind-specific arguments (see the Kind constants).
	A0, A1, A2, A3 int64
	// Job attributes the event to one logical offload request: every event
	// of a job's life (gate verdict, dispatch, queue wait, run, retry,
	// migration, completion) carries the same id, which is what lets the
	// span assembler reconstruct the job's causal tree from a flat stream.
	// Zero means unattributed (session-global events: radio states, link
	// phases, health probes).
	Job int64
}

// Tracer records events into a bounded ring buffer. When the ring is full
// the oldest events are overwritten and counted as dropped, so a runaway
// workload degrades the trace instead of memory. A nil *Tracer is a valid
// disabled tracer: Emit is a no-op.
type Tracer struct {
	// kinds is the kind-mask filter: bit k admits Kind k. Zero (the
	// initial state) admits everything, so SetKinds is pay-for-use. It is
	// atomic so Emit's hot path checks it before taking the ring lock.
	kinds atomic.Uint64

	mu      sync.Mutex
	buf     []Event
	head    int // next write position
	n       int // events currently stored
	dropped int64
}

// DefaultCapacity is the ring size used when NewTracer is given cap <= 0.
const DefaultCapacity = 1 << 15

// NewTracer creates a tracer whose ring holds capacity events
// (DefaultCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// SetKinds restricts the tracer to the given event kinds: Emit discards
// everything else before touching the ring (filtered events are not
// counted as dropped — they were never wanted). Calling SetKinds with no
// arguments re-admits every kind. Safe on nil, safe concurrently with
// Emit, and the filtered path stays allocation-free — the cheap way to
// mute a hot-path emitter without tearing out the tracer.
func (t *Tracer) SetKinds(keep ...Kind) {
	if t == nil {
		return
	}
	var mask uint64
	for _, k := range keep {
		mask |= 1 << k
	}
	t.kinds.Store(mask)
}

// Emit records one event. Safe on a nil tracer; never allocates.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if mask := t.kinds.Load(); mask != 0 && mask&(1<<ev.Kind) == 0 {
		return
	}
	t.mu.Lock()
	if t.n == len(t.buf) {
		t.dropped++
	} else {
		t.n++
	}
	t.buf[t.head] = ev
	t.head++
	if t.head == len(t.buf) {
		t.head = 0
	}
	t.mu.Unlock()
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events were overwritten after the ring filled.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	start := t.head - t.n
	if start < 0 {
		start += len(t.buf)
	}
	// The ring holds at most two contiguous runs: [start:] and the
	// wrapped-around prefix. Two copies beat a per-element modulo walk.
	n := copy(out, t.buf[start:])
	copy(out[n:], t.buf[:t.n-n])
	return out
}

// DropWarning returns a one-line operator warning when the ring dropped
// events, and "" when the trace is complete. Callers print it to stderr so
// a silently truncated trace never masquerades as a full one.
func (t *Tracer) DropWarning() string {
	d := t.Dropped()
	if d == 0 {
		return ""
	}
	return fmt.Sprintf("warning: trace ring dropped %d event(s) (oldest overwritten); raise the ring capacity or mute kinds with SetKinds", d)
}
