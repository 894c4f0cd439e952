package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/goldentest"
	"repro/internal/simtime"
)

// goldenTracer builds a deterministic miniature of a real offload session:
// gate decision, offload span, prefetch, task execution with a page fault,
// remote I/O, write-back, radio states and a link phase change.
func goldenTracer() *Tracer {
	ms := simtime.Millisecond
	tr := NewTracer(64)
	tr.Emit(Event{Time: 0, Kind: KLinkPhase, Track: TrackLink, A0: 650_000_000, A1: 0})
	tr.Emit(Event{Time: 1 * ms, Kind: KGate, Track: TrackMobile, Name: "offload",
		A0: int64(150 * ms), A1: 1 << 20, A2: 650_000_000, A3: 5360})
	tr.Emit(Event{Time: 1 * ms, Dur: 40 * ms, Kind: KOffload, Track: TrackMobile, Name: "crunch", A0: 1})
	tr.Emit(Event{Time: 1 * ms, Kind: KPrefetch, Track: TrackMobile, A0: 16, A1: 16 * 4096})
	tr.Emit(Event{Time: 1*ms + 500*simtime.Microsecond, Dur: 3 * ms, Kind: KMessage,
		Track: TrackLink, Name: "to_server", A0: 66000})
	tr.Emit(Event{Time: 5 * ms, Kind: KTaskEnter, Track: TrackServer, A0: 1})
	tr.Emit(Event{Time: 9 * ms, Dur: 2 * ms, Kind: KPageFault, Track: TrackServer,
		Name: "remote", A0: 0x7FFFe, A1: 0x7FFF_E000, A2: 4112})
	tr.Emit(Event{Time: 14 * ms, Dur: 1 * ms, Kind: KRemoteIO, Track: TrackServer,
		Name: "printf", A0: 24})
	tr.Emit(Event{Time: 36 * ms, Dur: 4 * ms, Kind: KWriteBack, Track: TrackServer,
		A0: 12, A1: 49152, A2: 9300})
	tr.Emit(Event{Time: 40 * ms, Kind: KTaskExit, Track: TrackServer})
	// Failure-recovery kinds: an injected fault, the retry it forces, the
	// abort after an exhausted budget, and the mobile's local fallback
	// behind a quarantined gate.
	tr.Emit(Event{Time: 41 * ms, Kind: KFault, Track: TrackLink, Name: "drop", A0: 66000, A1: 0})
	tr.Emit(Event{Time: 43 * ms, Kind: KRetry, Track: TrackLink, Name: "page.request",
		A0: 1, A1: int64(2 * ms)})
	tr.Emit(Event{Time: 50 * ms, Kind: KAbort, Track: TrackServer, Name: "page.request", A0: 1})
	tr.Emit(Event{Time: 52 * ms, Kind: KQuarantine, Track: TrackMobile, A0: 1, A1: int64(2 * simtime.Second)})
	tr.Emit(Event{Time: 52 * ms, Dur: 90 * ms, Kind: KFallback, Track: TrackMobile, Name: "crunch", A0: 1})
	// Fleet-scheduler kinds: a dispatch routed by the est-aware policy, the
	// queued request starting after its wait, and an admission shed.
	tr.Emit(Event{Time: 60 * ms, Kind: KDispatch, Track: TrackFleet, Name: "est-aware",
		A0: 7, A1: 2, A2: 3, A3: int64(12 * ms)})
	tr.Emit(Event{Time: 72 * ms, Kind: KQueue, Track: TrackFleet, A0: 7, A1: 2, A2: int64(12 * ms)})
	tr.Emit(Event{Time: 75 * ms, Kind: KShed, Track: TrackFleet, A0: 9, A1: 2, A2: 8})
	// Per-job span kinds: a retained exemplar's KJob root, the KJobSeg
	// critical-path partition of it (crossing the link and edge tracks, so
	// the exporter links them with a flow chain), and the job's cross-tier
	// demotion.
	tr.Emit(Event{Time: 80 * ms, Dur: 20 * ms, Kind: KJob, Track: TrackMobile, Name: "offload",
		Job: 42, A0: 7, A1: 2, A2: int64(60 * ms), A3: 1 << 20})
	tr.Emit(Event{Time: 80 * ms, Dur: 4 * ms, Kind: KJobSeg, Track: TrackLink, Name: "uplink",
		Job: 42, A0: 7, A1: -1})
	tr.Emit(Event{Time: 84 * ms, Dur: 2 * ms, Kind: KJobSeg, Track: TrackEdge, Name: "queue",
		Job: 42, A0: 7, A1: 2})
	tr.Emit(Event{Time: 85 * ms, Kind: KTierMigrate, Track: TrackFleet, Name: "demote",
		A0: 7, A1: 5, A2: 2, A3: int64(3 * ms), Job: 42})
	tr.Emit(Event{Time: 86 * ms, Dur: 10 * ms, Kind: KJobSeg, Track: TrackEdge, Name: "run",
		Job: 42, A0: 7, A1: 2})
	tr.Emit(Event{Time: 96 * ms, Dur: 4 * ms, Kind: KJobSeg, Track: TrackLink, Name: "reply",
		Job: 42, A0: 7, A1: -1})
	tr.Emit(Event{Time: 0, Dur: 1 * ms, Kind: KRadio, Track: TrackRadio, Name: "compute"})
	tr.Emit(Event{Time: 1 * ms, Dur: 3 * ms, Kind: KRadio, Track: TrackRadio, Name: "tx"})
	tr.Emit(Event{Time: 4 * ms, Dur: 36 * ms, Kind: KRadio, Track: TrackRadio, Name: "wait"})
	return tr
}

func TestChromeExportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	// Structural validity first: the exporter must emit well-formed JSON
	// with the trace_event envelope chrome://tracing expects.
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v", err)
	}
	// 27 events + 1 process metadata + 7 tracks * 2 metadata records +
	// 5 latency counter samples (offload, page_fault, remote_io,
	// write_back, queue) + 5 flow records for job 42's span chain
	// (KJob root + 4 KJobSeg spans across mobile/link/edge).
	if want := 27 + 1 + 14 + 5 + 5; len(parsed.TraceEvents) != want {
		t.Errorf("traceEvents count = %d, want %d", len(parsed.TraceEvents), want)
	}
	goldentest.Check(t, "chrome_golden.json", buf.Bytes())
}
