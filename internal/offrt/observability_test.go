package offrt

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestTracedSessionEmitsLifecycleEvents runs a real offloaded program with a
// tracer and metrics registry attached and checks the acceptance set: the
// trace must contain gate-decision, page-fault, prefetch, write-back and
// radio-state events, and the Chrome export must be valid trace_event JSON.
func TestTracedSessionEmitsLifecycleEvents(t *testing.T) {
	env := setupTraced(t, Policy{ForceOffload: true})
	if _, err := env.sess.RunMobile(); err != nil {
		t.Fatal(err)
	}

	counts := make(map[obs.Kind]int)
	for _, ev := range env.sess.Tracer.Events() {
		counts[ev.Kind]++
	}
	for _, k := range []obs.Kind{obs.KGate, obs.KPageFault, obs.KPrefetch,
		obs.KWriteBack, obs.KRadio, obs.KMessage, obs.KOffload,
		obs.KTaskEnter, obs.KTaskExit} {
		if counts[k] == 0 {
			t.Errorf("trace has no %v events; got %v", k, counts)
		}
	}

	// The Chrome export of a real session must be loadable JSON.
	var buf bytes.Buffer
	if err := env.sess.Tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("Chrome export is invalid JSON: %v", err)
	}
	if len(parsed.TraceEvents) < env.sess.Tracer.Len() {
		t.Errorf("Chrome export has %d records for %d events", len(parsed.TraceEvents), env.sess.Tracer.Len())
	}

	// Metrics published at Shutdown must agree with the session's counters.
	m := env.sess.Metrics
	if got, want := m.Value("session.offloads"), int64(env.sess.Stats.Offloads); got != want {
		t.Errorf("session.offloads metric = %d, want %d", got, want)
	}
	if got, want := m.Value("link.bytes_to_server"), env.sess.LinkStats.BytesToServer; got != want {
		t.Errorf("link.bytes_to_server metric = %d, want %d", got, want)
	}
	if m.Value("session.prefetch_pages") == 0 {
		t.Error("session.prefetch_pages metric missing")
	}
	if m.Value("task.1.offloads") != 1 {
		t.Errorf("task.1.offloads metric = %d, want 1", m.Value("task.1.offloads"))
	}

	// Per-session end-to-end offload latency: nonzero, published, and (in
	// this fault-free run, where every attempt succeeds) exactly the sum of
	// the KOffload span durations.
	if env.sess.Stats.E2ELatency == 0 {
		t.Error("Stats.E2ELatency is zero after a completed offload")
	}
	if got, want := m.Value("session.e2e_latency_ps"), int64(env.sess.Stats.E2ELatency); got != want {
		t.Errorf("session.e2e_latency_ps metric = %d, want %d", got, want)
	}
	var spanSum int64
	for _, ev := range env.sess.Tracer.Events() {
		if ev.Kind == obs.KOffload {
			spanSum += int64(ev.Dur)
		}
	}
	if spanSum != int64(env.sess.Stats.E2ELatency) {
		t.Errorf("E2ELatency %d != sum of offload span durations %d", env.sess.Stats.E2ELatency, spanSum)
	}
}

// setupTraced is setup() plus an attached tracer and metrics registry.
func setupTraced(t *testing.T, pol Policy) *testEnv {
	t.Helper()
	return setup(t, netsim.Fast80211AC(), pol, WithTracer(obs.NewTracer(0)), WithMetrics(obs.NewMetrics()))
}

// TestTracedRunMatchesUntracedTiming: attaching a tracer must not perturb
// the simulation — same exit code, same final clock, same traffic.
func TestTracedRunMatchesUntracedTiming(t *testing.T) {
	plain := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true})
	if _, err := plain.sess.RunMobile(); err != nil {
		t.Fatal(err)
	}
	traced := setupTraced(t, Policy{ForceOffload: true})
	if _, err := traced.sess.RunMobile(); err != nil {
		t.Fatal(err)
	}
	if plain.mobile.Clock != traced.mobile.Clock {
		t.Errorf("tracing changed the simulated clock: %v vs %v",
			plain.mobile.Clock, traced.mobile.Clock)
	}
	if plain.sess.LinkStats.TotalBytes() != traced.sess.LinkStats.TotalBytes() {
		t.Errorf("tracing changed traffic: %d vs %d",
			plain.sess.LinkStats.TotalBytes(), traced.sess.LinkStats.TotalBytes())
	}
}

// TestNewSessionIsTheOnlyConstructor pins the post-shim construction path:
// a bare NewSession with WithTasks/WithPolicy covers what the removed
// offrt.New signature used to take positionally.
func TestNewSessionIsTheOnlyConstructor(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true})
	sess, err := NewSession(env.mobile, env.server, env.link,
		WithTasks(env.pair.tasks...), WithPolicy(Policy{ForceOffload: true}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunMobile(); err != nil {
		t.Fatal(err)
	}
	if sess.Stats.Offloads == 0 {
		t.Error("session never offloaded under ForceOffload")
	}
}

// TestNewSessionRejectsBadInputs pins the constructor's validation.
func TestNewSessionRejectsBadInputs(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{})
	defer env.sess.Shutdown()

	if _, err := NewSession(nil, env.server, env.link); err == nil {
		t.Error("nil mobile machine accepted")
	}
	if _, err := NewSession(env.mobile, env.server, nil); err == nil {
		t.Error("nil link accepted")
	}
	bad := netsim.Fast80211AC()
	bad.Phases = []netsim.Phase{
		{Until: 100, BandwidthBps: 1}, {Until: 50, BandwidthBps: 2},
	}
	if _, err := NewSession(env.mobile, env.server, bad); err == nil {
		t.Error("unsorted phase schedule accepted")
	}
}
