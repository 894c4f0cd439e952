package offrt

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/interp"
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
	defer env.sess.shutdown()
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
		if err := env.sess.shutdown(); err != nil {
			t.Fatalf("repeat shutdown #%d: %v", i+1, err)
		}
	}
}

// TestShutdownSafeAfterServerExit: a listen loop resumed with a shutdown
// request outside shutdown exits and comes back with no reply; shutdown
// then resumes nothing and returns.
func TestShutdownSafeAfterServerExit(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{})
	ep := &env.sess.ep
	ep.yielded(ep.m.RunMain())
	ep.resume(0)
	if ep.parked || ep.rep != nil || ep.err != nil {
		t.Fatalf("listen loop came back with parked %v, reply %v, error %v", ep.parked, ep.rep, ep.err)
	}
	done := make(chan error, 1)
	go func() { done <- env.sess.shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown after server exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown deadlocked after the server loop exited")
	}
}

// dyingHost is the server's SysHost in TestServerDeathMidTask: its
// SendReturn fails, before the session finalizes the task or after.
type dyingHost struct {
	*Session
	afterFinalize bool
}

var errHostDied = errors.New("host died")

func (h *dyingHost) SendReturn(m *interp.Machine, v uint64) error {
	if h.afterFinalize {
		if err := h.Session.SendReturn(m, v); err != nil {
			return err
		}
	}
	return errHostDied
}

// TestServerDeathMidTask: a listen loop whose task fails comes back to the
// mobile exited, not parked at accept. Before finalization there is no
// reply, and RunMobile returns an error naming the failure and wrapping the
// server's; after finalization the mobile has its result, runs to the
// fault-free end, and the server's error surfaces from the shutdown.
func TestServerDeathMidTask(t *testing.T) {
	twolf := workloadPair(t, "300.twolf") // one offload
	link := scaledLink(netsim.Fast80211AC())
	clean := twolf.session(t, link, Policy{})
	wantCode, err := clean.sess.RunMobile()
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantMem := clean.io.Out.String(), clean.sess.MemDigest()

	for _, after := range []bool{false, true} {
		env := twolf.session(t, link, Policy{})
		env.server.Sys = &dyingHost{Session: env.sess, afterFinalize: after}
		type result struct {
			code int32
			err  error
		}
		done := make(chan result, 1)
		go func() {
			code, err := env.sess.RunMobile()
			done <- result{code, err}
		}()
		var r result
		select {
		case r = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("after finalize %v: RunMobile hung on a dead server", after)
		}
		if !errors.Is(r.err, errHostDied) {
			t.Fatalf("after finalize %v: error %v does not wrap the server's", after, r.err)
		}
		midTask := strings.Contains(r.err.Error(), "server failed mid-task")
		if !after {
			if !midTask {
				t.Errorf("error %q does not name the mid-task failure", r.err)
			}
			continue
		}
		if midTask || r.err != env.sess.ep.err {
			t.Errorf("error %q is not the shutdown's %q", r.err, env.sess.ep.err)
		}
		if r.code != wantCode || env.io.Out.String() != wantOut || env.sess.MemDigest() != wantMem {
			t.Errorf("result diverged from the fault-free run: code %d (want %d), output equal %v, digest equal %v",
				r.code, wantCode, env.io.Out.String() == wantOut, env.sess.MemDigest() == wantMem)
		}
	}
}
