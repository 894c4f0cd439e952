package offrt

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// runClean runs the heavy program fault-free and returns its output and
// the mobile machine's final memory digest.
func runClean(t *testing.T, pol Policy) (string, uint64) {
	t.Helper()
	env := setup(t, netsim.Fast80211AC(), pol)
	code, err := env.sess.RunMobile()
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("clean run exit code %d", code)
	}
	return env.io.Out.String(), env.sess.MemDigest()
}

func TestRetriesSurviveLossyLink(t *testing.T) {
	wantOut, wantMem := runClean(t, Policy{ForceOffload: true})

	env := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true},
		WithFaults(faults.MustInjector(faults.Plan{Seed: 11, DropRate: 0.2, CorruptRate: 0.05})))
	code, err := env.sess.RunMobile()
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("faulted run exit code %d", code)
	}
	if got := env.io.Out.String(); got != wantOut {
		t.Errorf("faulted output diverged:\n got %q\nwant %q", got, wantOut)
	}
	if got := env.sess.MemDigest(); got != wantMem {
		t.Errorf("faulted memory digest %x != clean %x", got, wantMem)
	}
	if env.sess.Stats.Retries == 0 {
		t.Error("a 20% drop rate should force retransmissions")
	}
	if env.sess.LinkStats.Injector.Stats().Total() == 0 {
		t.Error("injector reported no faults")
	}
	// The lossy run pays for its retries in simulated time.
	clean := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true})
	if _, err := clean.sess.RunMobile(); err != nil {
		t.Fatal(err)
	}
	if env.mobile.Clock <= clean.mobile.Clock {
		t.Errorf("lossy run (%v) should be slower than clean (%v)", env.mobile.Clock, clean.mobile.Clock)
	}
}

func TestTotalOutageFallsBackLocally(t *testing.T) {
	wantOut, wantMem := runClean(t, Policy{ForceOffload: true})

	tr := obs.NewTracer(0)
	env := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true},
		WithTracer(tr),
		WithFaults(faults.MustInjector(faults.Plan{
			Outages: []faults.Window{{Start: 0, End: 1 << 62}},
		})))
	code, err := env.sess.RunMobile()
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("outage run exit code %d", code)
	}
	if got := env.io.Out.String(); got != wantOut {
		t.Errorf("outage output diverged:\n got %q\nwant %q", got, wantOut)
	}
	if got := env.sess.MemDigest(); got != wantMem {
		t.Errorf("outage memory digest %x != clean %x", got, wantMem)
	}
	if env.sess.Stats.Fallbacks == 0 {
		t.Error("a dead link must force local fallback")
	}
	var fallbacks, retries, quarantines int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.KFallback:
			fallbacks++
		case obs.KRetry:
			retries++
		case obs.KQuarantine:
			quarantines++
		}
	}
	if fallbacks == 0 || retries == 0 || quarantines == 0 {
		t.Errorf("trace events: %d fallback.local, %d rpc.retry, %d gate.quarantine — all should be > 0",
			fallbacks, retries, quarantines)
	}
	if env.sess.quarantineUntil == 0 {
		t.Error("gate not quarantined after fallback")
	}
}

func TestMidTaskOutageAbortsAndRecovers(t *testing.T) {
	// NoPrefetch forces copy-on-demand page faults throughout the task, so
	// an outage opening mid-run catches the offload in flight: the server
	// aborts, finishes in ghost mode, and the mobile re-executes locally.
	wantOut, wantMem := runClean(t, Policy{ForceOffload: true, NoPrefetch: true})

	clean := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true, NoPrefetch: true})
	if _, err := clean.sess.RunMobile(); err != nil {
		t.Fatal(err)
	}
	total := clean.mobile.Clock

	env := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true, NoPrefetch: true},
		WithFaults(faults.MustInjector(faults.Plan{
			Outages: []faults.Window{{Start: total / 4, End: 1 << 62}},
		})))
	code, err := env.sess.RunMobile()
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("mid-task outage exit code %d", code)
	}
	if got := env.io.Out.String(); got != wantOut {
		t.Errorf("mid-task outage output diverged:\n got %q\nwant %q", got, wantOut)
	}
	if got := env.sess.MemDigest(); got != wantMem {
		t.Errorf("memory digest %x != clean %x", got, wantMem)
	}
	if env.sess.Stats.Aborts == 0 {
		t.Error("mid-task outage should abort the offload server-side")
	}
	if env.sess.Stats.Fallbacks == 0 {
		t.Error("aborted offload should fall back locally")
	}
	// Ghost mode must leave the server cold, exactly like a clean finalize.
	if got := len(env.server.Mem.PresentPages()); got != 0 {
		t.Errorf("server retains %d pages after aborted offload", got)
	}
}

func TestQuarantineDeclinesGate(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true})
	defer env.sess.Shutdown()
	env.sess.quarantineUntil = env.mobile.Clock + simtime.Second
	declines := env.sess.Stats.Declines
	if env.sess.Gate(env.mobile, 1) {
		t.Error("quarantined gate offloaded (even ForceOffload must yield)")
	}
	if env.sess.Stats.Declines != declines+1 {
		t.Error("quarantine decline not counted")
	}
	// After the cool-down the gate recovers.
	env.mobile.Clock = env.sess.quarantineUntil
	if !env.sess.Gate(env.mobile, 1) {
		t.Error("gate still declining after the cool-down expired")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true})
	if _, err := env.sess.RunMobile(); err != nil { // RunMobile shuts down
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := env.sess.Shutdown(); err != nil {
			t.Fatalf("repeat Shutdown #%d: %v", i+1, err)
		}
	}
}

func TestShutdownSafeAfterServerExit(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{})
	env.sess.Start()
	// The server loop exits on its own (shutdown request outside Shutdown);
	// a Shutdown after that used to deadlock pushing a second request into
	// a channel nobody receives from.
	env.sess.reqCh <- request{taskID: 0}
	done := make(chan error, 1)
	go func() { done <- env.sess.Shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown after server exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown deadlocked after the server loop exited")
	}
}
