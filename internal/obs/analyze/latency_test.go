package analyze

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// crashRetryTrace is one offload whose first attempt dies with its server:
// request and a remote printf on host 0, the crash, the mobile's restart,
// then a second attempt that finishes on the spare and closes the offload.
func crashRetryTrace() *obs.Tracer {
	ms := simtime.Millisecond
	tr := obs.NewTracer(64)
	emit := func(at, dur simtime.PS, k obs.Kind, track obs.Track, name string) {
		tr.Emit(obs.Event{Time: at * ms, Dur: dur * ms, Kind: k, Track: track, Name: name, A0: 1, Job: 1})
	}
	for _, start := range []simtime.PS{1, 20} {
		emit(start, 0, obs.KPrefetch, obs.TrackMobile, "")
		emit(start, 2, obs.KMessage, obs.TrackLink, "to_server")
		emit(start+2, 0, obs.KTaskEnter, obs.TrackServer, "")
		emit(start+4, 1, obs.KRemoteIO, obs.TrackServer, "printf")
		emit(start+4, 1, obs.KMessage, obs.TrackLink, "to_mobile")
		if start == 1 {
			emit(8, 0, obs.KServerFault, obs.TrackServer, "crash")
			emit(8, 0, obs.KAbort, obs.TrackServer, "remote.printf")
			emit(20, 0, obs.KRetry, obs.TrackMobile, "offload.restart")
		}
	}
	emit(30, 3, obs.KWriteBack, obs.TrackServer, "")
	emit(33, 0, obs.KTaskExit, obs.TrackServer, "")
	emit(1, 32, obs.KOffload, obs.TrackMobile, "crunch")
	return tr
}

// TestBreakdownKeepsCrashRetriedAttempt: the restart's second prefetch
// continues the open offload, so the lost attempt's request and remote I/O
// stay communication instead of vanishing into compute.
func TestBreakdownKeepsCrashRetriedAttempt(t *testing.T) {
	ms := simtime.Millisecond
	s := Breakdown(crashRetryTrace().Events())
	want := Offload{Task: 1, Name: "crunch", Start: 1 * ms, Total: 32 * ms,
		Init: 4 * ms, Compute: 23 * ms, IO: 2 * ms, WriteBack: 3 * ms}
	if len(s.Offloads) != 1 || s.Offloads[0] != want {
		t.Errorf("breakdown = %+v, want one %+v", s.Offloads, want)
	}
}

// TestReplayLatencies covers each replay rule on a hand-built stream.
func TestReplayLatencies(t *testing.T) {
	ms := simtime.Millisecond
	tr := obs.NewTracer(64)
	emit := func(at, dur simtime.PS, k obs.Kind, track obs.Track, name string, a1 int64) {
		tr.Emit(obs.Event{Time: at * ms, Dur: dur * ms, Kind: k, Track: track, Name: name, A1: a1})
	}
	link, mobile, server := obs.TrackLink, obs.TrackMobile, obs.TrackServer
	// Offload 1: its request is dropped, backs off 2ms and is re-sent (one
	// 10ms RPC); a delayed page request still arrives; a zero-fill fault is
	// local; then write-back, a migration, and the closing span.
	emit(1, 0, obs.KPrefetch, mobile, "", 0)
	emit(1, 0, obs.KFault, link, "drop", 0)
	emit(1, 3, obs.KMessage, link, "to_server", 0)
	emit(9, 0, obs.KRetry, link, "offload.request", int64(2*ms))
	emit(9, 2, obs.KMessage, link, "to_server", 0)
	emit(12, 0, obs.KFault, link, "delay", int64(ms))
	emit(12, 2, obs.KMessage, link, "to_mobile", 0)
	emit(12, 0, obs.KPageFault, server, "zero-fill", 0)
	emit(14, 4, obs.KPageFault, server, "remote", 0)
	emit(18, 5, obs.KMigrateShip, server, "", 0)
	emit(30, 6, obs.KWriteBack, server, "", 0)
	emit(1, 40, obs.KOffload, mobile, "crunch", 0)
	// Offload 2: a request corrupted on every attempt (the last one
	// terminal, so no RPC), then a crash restart, whose second prefetch
	// does not reopen the offload, and a local fallback ending at 100ms.
	emit(50, 0, obs.KPrefetch, mobile, "", 0)
	emit(50, 0, obs.KFault, link, "corrupt", 0)
	emit(50, 1, obs.KMessage, link, "to_server", 0)
	emit(53, 0, obs.KRetry, link, "offload.request", int64(2*ms))
	emit(53, 0, obs.KFault, link, "outage", 0)
	emit(53, 1, obs.KMessage, link, "to_server", 0)
	emit(60, 0, obs.KRetry, mobile, "offload.restart", 1)
	emit(60, 0, obs.KPrefetch, mobile, "", 0)
	emit(70, 30, obs.KFallback, mobile, "crunch", 0)

	l := ReplayLatencies(tr.Events())
	want := &Latencies{
		PageFault: []simtime.PS{4 * ms},
		RPC:       []simtime.PS{10 * ms, 2 * ms},
		Backoff:   []simtime.PS{2 * ms, 2 * ms},
		WriteBack: []simtime.PS{6 * ms},
		E2E:       []simtime.PS{40 * ms, 50 * ms},
		Migration: []simtime.PS{5 * ms},
	}
	for i, w := range want.populations() {
		if got := l.populations()[i]; !slices.Equal(got.vals, w.vals) {
			t.Errorf("%s = %v, want %v", w.name, got.vals, w.vals)
		}
	}

	// The table renders every population, empty ones included, in name
	// order; a single-value row reports that value at every quantile.
	table := LatencyTable(l)
	lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	if len(lines) != 7 || !strings.HasPrefix(lines[0], "histogram ") {
		t.Fatalf("latency table:\n%s", table)
	}
	if f := strings.Fields(lines[1]); f[0] != "lat.migration_ps" || f[1] != "1" || f[5] != "5000000000" {
		t.Errorf("migration row = %q", lines[1])
	}
	empty := strings.Split(strings.TrimSuffix(LatencyTable(&Latencies{}), "\n"), "\n")
	for _, row := range empty[1:] {
		if f := strings.Fields(row); len(f) != 7 || slices.ContainsFunc(f[1:], func(c string) bool { return c != "0" }) {
			t.Errorf("empty population row = %q, want all zeros", row)
		}
	}
	if len(empty) != 7 {
		t.Errorf("empty latency table has %d lines, want 7", len(empty))
	}
}
