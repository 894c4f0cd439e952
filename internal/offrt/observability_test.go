package offrt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// TestTracedSessionEmitsLifecycleEvents runs a real offloaded program with a
// tracer attached and checks the acceptance set: the
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

	// Per-session end-to-end offload latency: nonzero and (in this
	// fault-free run, where every attempt succeeds) exactly the sum of the
	// KOffload span durations.
	if env.sess.Stats.E2ELatency == 0 {
		t.Error("Stats.E2ELatency is zero after a completed offload")
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

// setupTraced is setup() plus an attached tracer.
func setupTraced(t *testing.T, pol Policy) *testEnv {
	t.Helper()
	return setup(t, netsim.Fast80211AC(), pol, WithTracer(obs.NewTracer(0)))
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
	// A session has host 0, and host 1 with migration's spare: a fault on
	// any other host is refused, not silently never consulted.
	crash := func(host int) Option {
		return WithServerFaults(&faults.ServerPlan{Events: []faults.ServerEvent{
			{Kind: faults.Crash, Server: host, Start: simtime.Millisecond}}})
	}
	for _, tc := range []struct {
		opts []Option
		want string // "" = accepted
	}{
		{[]Option{crash(0)}, ""},
		{[]Option{crash(1)}, "names server 1, but the pool has 1"},
		{[]Option{crash(1), WithMigration()}, ""},
		{[]Option{crash(3), WithMigration()}, "names server 3, but the pool has 2"},
	} {
		mobile, server := env.pair.mobile.NewInstance(), env.pair.server.NewInstance()
		sess, err := NewSession(mobile, server, env.link, tc.opts...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%d opts: valid plan refused: %v", len(tc.opts), err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%d opts: got %v, want an error containing %q", len(tc.opts), err, tc.want)
		}
		if sess != nil {
			sess.Shutdown()
		}
	}
}
