package fleet

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// faultPlan builds a one-event plan against server si.
func faultPlan(kind faults.ServerKind, si int, at simtime.PS) *faults.ServerPlan {
	return &faults.ServerPlan{Events: []faults.ServerEvent{{Kind: kind, Server: si, Start: at}}}
}

// TestCrashReleasesReservations is the slot-accounting regression: a server
// killed mid-run strands reservations of requests still in flight over their
// clients' links and jobs mid-service in its slots. Run's end-of-run
// invariant (reserved == 0 && busy == 0 on every server) must hold anyway —
// before the fix, an aborted dispatch leaked its reservation forever. A
// dispatched job the crash sends down the local path stays dispatched, so
// Offloads+Sheds <= Dispatched <= Offloads+Sheds+Fallbacks, and without
// Migrate the crash makes the first bound strict.
func TestCrashReleasesReservations(t *testing.T) {
	for _, pol := range Policies() {
		for _, migrate := range []bool{false, true} {
			cfg := DefaultConfig(32, 4, pol)
			cfg.Seed = 6
			cfg.ServerFaults = faultPlan(faults.Crash, 0, 800*simtime.Millisecond)
			cfg.Migrate = migrate

			res, err := Run(cfg) // Run itself enforces the invariants
			if err != nil {
				t.Fatalf("%s migrate=%v: %v", pol, migrate, err)
			}
			if got := res.Offloads + res.Declines + res.Sheds + res.Fallbacks; got != res.Requests {
				t.Errorf("%s migrate=%v: %d completions of %d requests", pol, migrate, got, res.Requests)
			}
			if remote := res.Offloads + res.Sheds; res.Dispatched < remote || res.Dispatched > remote+res.Fallbacks ||
				(!migrate && res.Dispatched == remote) {
				t.Errorf("%s migrate=%v: dispatched %d outside offloads %d + sheds %d (+ fallbacks %d)",
					pol, migrate, res.Dispatched, res.Offloads, res.Sheds, res.Fallbacks)
			}
			if migrate {
				if res.Fallbacks != 0 {
					t.Errorf("%s: migration enabled but %d requests fell back locally", pol, res.Fallbacks)
				}
			} else {
				if res.Retried != 0 || res.Migrations != 0 {
					t.Errorf("%s: recovery traffic (%d retried, %d migrations) without Migrate",
						pol, res.Retried, res.Migrations)
				}
			}
		}
	}
}

// TestCrashVictimsRetryOnSurvivors: the killed server's in-flight work is
// re-sent to survivors when migration is on. The recovery decision races
// each victim's remote estimate against local re-execution, so a loaded
// survivor may legitimately lose a victim to local fallback — but with
// three servers still up, remote must win for most of them.
func TestCrashVictimsRetryOnSurvivors(t *testing.T) {
	cfg := DefaultConfig(64, 4, EstAware)
	cfg.Seed = 3
	cfg.ServerFaults = faultPlan(faults.Crash, 1, 600*simtime.Millisecond)
	cfg.Migrate = true
	tr := obs.NewTracer(0)
	cfg.Tracer = tr

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retried == 0 {
		t.Fatal("crash at 600ms into a 64-client run caught no in-flight work; test is vacuous")
	}
	if res.Fallbacks > res.Retried {
		t.Errorf("%d of %d victims fell back locally despite three surviving servers",
			res.Fallbacks, res.Fallbacks+res.Retried)
	}
	var sawFault bool
	for _, e := range tr.Events() {
		if e.Kind == obs.KServerFault && e.Name == "crash" && e.A0 == 1 {
			sawFault = true
		}
	}
	if !sawFault {
		t.Error("no fleet-track crash event traced")
	}
}

// TestDrainMigratesRunningJobs: a scheduled drain live-migrates whatever is
// mid-service; without Migrate, running jobs finish in place but the queue
// is abandoned to local fallback. The pool is kept lightly loaded so the
// survivor's estimate wins the migrate-vs-local race — at saturation local
// re-execution can legitimately be the better recovery.
func TestDrainMigratesRunningJobs(t *testing.T) {
	base := DefaultConfig(16, 2, RoundRobin)
	base.Seed = 12
	base.ServerFaults = faultPlan(faults.Drain, 0, 700*simtime.Millisecond)

	on := base
	on.Migrate = true
	resOn, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	if resOn.Migrations == 0 {
		t.Fatal("drain at 700ms into a 16-client run migrated nothing; test is vacuous")
	}

	off := base
	off.Migrate = false
	resOff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if resOff.Migrations != 0 || resOff.Retried != 0 {
		t.Errorf("recovery traffic (%d, %d) without Migrate", resOff.Migrations, resOff.Retried)
	}
	// Both variants still conserve requests (checked inside Run too).
	if got := resOff.Offloads + resOff.Declines + resOff.Sheds + resOff.Fallbacks; got != resOff.Requests {
		t.Errorf("migrate-off accounting broken: %d of %d", got, resOff.Requests)
	}
}

// TestWholePoolDownFallsBack: with every server gone, clients detect the
// dead pool at dispatch time and run locally — no hangs, no lost requests.
func TestWholePoolDownFallsBack(t *testing.T) {
	cfg := DefaultConfig(8, 2, LeastLoaded)
	cfg.Seed = 5
	cfg.ServerFaults = &faults.ServerPlan{Events: []faults.ServerEvent{
		{Kind: faults.Crash, Server: 0, Start: 100 * simtime.Millisecond},
		{Kind: faults.Crash, Server: 1, Start: 100 * simtime.Millisecond},
	}}
	cfg.Migrate = true

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks == 0 {
		t.Error("no fallbacks despite the whole pool crashing at 100ms")
	}
	if got := res.Offloads + res.Declines + res.Sheds + res.Fallbacks; got != res.Requests {
		t.Errorf("accounting broken: %d of %d", got, res.Requests)
	}
}

// TestSlowdownStretchesService: a slowdown window must lengthen the run
// while every request still completes exactly once. Completion *counts* may
// shift slightly — shifted timing changes which link phase each decision
// samples — so the assertions are conservation and stretched makespan, not
// count equality.
func TestSlowdownStretchesService(t *testing.T) {
	base := DefaultConfig(16, 2, RoundRobin)
	base.Seed = 9
	base.Admission = Admission{}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	slow := base
	slow.ServerFaults = &faults.ServerPlan{Events: []faults.ServerEvent{
		{Kind: faults.Slowdown, Server: 0, Start: 0, End: 1000 * simtime.Second, Factor: 8},
	}}
	res, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != clean.Requests {
		t.Errorf("slowdown changed the request count: %d vs clean %d", res.Requests, clean.Requests)
	}
	if got := res.Offloads + res.Declines + res.Sheds + res.Fallbacks; got != res.Requests {
		t.Errorf("accounting broken under slowdown: %d of %d", got, res.Requests)
	}
	if res.MakespanMs <= clean.MakespanMs {
		t.Errorf("8x slowdown did not stretch the run: %v <= %v ms", res.MakespanMs, clean.MakespanMs)
	}
}

// TestFaultRunsDeterministic: fault schedules and migration must not break
// the byte-identical-results guarantee.
func TestFaultRunsDeterministic(t *testing.T) {
	cfg := DefaultConfig(32, 4, EstAware)
	cfg.Seed = 21
	cfg.ServerFaults = &faults.ServerPlan{Events: []faults.ServerEvent{
		{Kind: faults.Crash, Server: 2, Start: 500 * simtime.Millisecond},
		{Kind: faults.Drain, Server: 0, Start: 900 * simtime.Millisecond},
		{Kind: faults.Slowdown, Server: 1, Start: 200 * simtime.Millisecond,
			End: 2 * simtime.Second, Factor: 3},
	}}
	cfg.Migrate = true

	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("faulted runs diverged:\n%+v\n%+v", a, b)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("JSON not byte-identical:\n%s\n%s", ja, jb)
	}
}

// TestConfigRejectsBadFaultPlan: Validate surfaces fault-plan errors.
func TestConfigRejectsBadFaultPlan(t *testing.T) {
	cfg := DefaultConfig(4, 2, Random)
	cfg.ServerFaults = &faults.ServerPlan{Events: []faults.ServerEvent{
		{Kind: faults.Slowdown, Server: 0, Start: 100, End: 50, Factor: 2},
	}}
	if _, err := Run(cfg); err == nil {
		t.Error("empty slowdown window accepted")
	}
}
