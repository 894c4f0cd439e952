package offrt

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// TestGateConsultsFleetLoad: a session constructed against a fleet pool
// (WithFleet) must charge the pool's live queueing delay in its dynamic
// gate — the same task that offloads against an idle pool flips to local
// once every slot is pinned busy.
func TestGateConsultsFleetLoad(t *testing.T) {
	pool := fleet.NewPool(fleet.ServerSpec{R: 6, Slots: 2})
	env := setup(t, netsim.Fast80211AC(), Policy{}, WithFleet(pool))
	defer env.sess.Shutdown()

	// Clearly profitable against a dedicated server: seconds of compute,
	// a modest footprint.
	spec := TaskSpec{TaskID: 99, Name: "spec_heavy",
		TimePerInvocation: simtime.FromSeconds(5), MemBytes: 1 << 20}
	env.sess.tasks[99] = spec
	env.sess.PerTask[99] = &TaskStats{}

	if !env.sess.Gate(env.mobile, 99) {
		t.Fatal("profitable task declined against an idle pool")
	}
	// Pin every slot busy for the next 100 simulated seconds: the queueing
	// delay now dwarfs the task's local execution time.
	pool.Occupy(0, 100*simtime.FromSeconds(1), env.mobile.Clock)
	pool.Occupy(0, 100*simtime.FromSeconds(1), env.mobile.Clock)
	if env.sess.Gate(env.mobile, 99) {
		t.Error("gate offloaded into a saturated pool; load signal ignored")
	}
	if env.sess.PerTask[99].Declines != 1 {
		t.Errorf("decline not recorded: %+v", env.sess.PerTask[99])
	}
}

// TestWithStartTimeResolvesPhase pins the start-epoch fix: a session
// joining the shared timeline mid-run (as fleet clients do) must resolve
// the link phase — for both the initial trace event and the gate's
// bandwidth — at its start instant, not at t=0.
func TestWithStartTimeResolvesPhase(t *testing.T) {
	start := 2 * simtime.Second
	link := netsim.Fast80211AC()
	if err := link.SetPhases(
		netsim.Phase{Until: simtime.Second, BandwidthBps: link.BandwidthBps},
		netsim.Phase{Until: 1 << 62, BandwidthBps: 2_000}, // effectively down
	); err != nil {
		t.Fatal(err)
	}
	env := setup(t, link, Policy{}, WithStartTime(start), WithTracer(obs.NewTracer(0)))
	defer env.sess.Shutdown()

	if env.mobile.Clock < start || env.server.Clock < start {
		t.Fatalf("machine clocks (%v, %v) start before the session epoch %v",
			env.mobile.Clock, env.server.Clock, start)
	}
	// The construction-time phase trace must report phase 1 (the 2 kbps
	// regime in effect at 2 s), stamped at the start instant.
	var phases []obs.Event
	for _, ev := range env.sess.Tracer.Events() {
		if ev.Kind == obs.KLinkPhase {
			phases = append(phases, ev)
		}
	}
	if len(phases) == 0 {
		t.Fatal("no link-phase event traced at construction")
	}
	if first := phases[0]; first.Time != start || first.A1 != 1 || first.A0 != 2_000 {
		t.Errorf("initial phase event = {t=%v bw=%d idx=%d}, want {t=%v bw=2000 idx=1}",
			first.Time, first.A0, first.A1, start)
	}

	// And the gate must estimate against that regime: the heavy task that
	// is profitable on 802.11ac is hopeless at 2 kbps.
	spec := TaskSpec{TaskID: 99, Name: "spec_heavy",
		TimePerInvocation: simtime.FromSeconds(5), MemBytes: 1 << 20}
	env.sess.tasks[99] = spec
	env.sess.PerTask[99] = &TaskStats{}
	if env.sess.Gate(env.mobile, 99) {
		t.Error("gate offloaded over the degraded phase; it estimated with stale bandwidth")
	}
	// The gate event's A2 is the bandwidth the verdict was priced with.
	var gateBW []int64
	for _, ev := range env.sess.Tracer.Events() {
		if ev.Kind == obs.KGate {
			gateBW = append(gateBW, ev.A2)
		}
	}
	if len(gateBW) == 0 || gateBW[len(gateBW)-1] != 2_000 {
		t.Errorf("gate saw bandwidths %v, want the phase-1 2000 bps", gateBW)
	}
}

// TestWithStartTimeRejectsNegative pins constructor validation.
func TestWithStartTimeRejectsNegative(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{})
	defer env.sess.Shutdown()
	if _, err := NewSession(env.mobile, env.server, env.link, WithStartTime(-1)); err == nil {
		t.Error("negative start time accepted")
	}
}
