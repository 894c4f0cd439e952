package offrt

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/simtime"
)

// replayShape is one traced session run to completion.
type replayShape struct {
	name   string
	sess   *Session
	events []obs.Event
}

// replayShapes runs the session shapes the trace replays must reconstruct:
// fault-free twolf; twolf under a link outage ending in a fallback; mcf and
// sjeng under drops, corruption and delay spikes; a link dead from the
// start; a crash retried on a spare; and a drain migration.
func replayShapes(t *testing.T) []replayShape {
	t.Helper()
	twolf := workloadPair(t, "300.twolf")
	mcf := workloadPair(t, "429.mcf")
	sjeng := workloadPair(t, "458.sjeng")
	fast := func() *netsim.Link { return scaledLink(netsim.Fast80211AC()) }
	run := func(name string, env *testEnv) replayShape {
		t.Helper()
		if _, err := env.sess.RunMobile(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := env.sess.Tracer.Dropped(); d != 0 {
			t.Fatalf("%s: ring dropped %d events", name, d)
		}
		return replayShape{name, env.sess, env.sess.Tracer.Events()}
	}
	with := func(opts ...Option) []Option {
		return append([]Option{WithTracer(obs.NewTracer(1 << 18))}, opts...)
	}

	shapes := []replayShape{run("fault-free", twolf.session(t, fast(), Policy{}, with()...))}
	// Fault instants land inside the fault-free offload.
	var mid simtime.PS
	for _, ev := range shapes[0].events {
		if ev.Kind == obs.KOffload {
			mid = ev.Time + ev.Dur/2
		}
	}
	if mid == 0 {
		t.Fatal("fault-free twolf run traced no offload")
	}
	lossy := faults.Plan{Seed: 3, DropRate: 0.2, CorruptRate: 0.05, DelayRate: 0.1}
	server := func(kind faults.ServerKind, at simtime.PS) Option {
		return WithServerFaults(&faults.ServerPlan{Events: []faults.ServerEvent{{Kind: kind, Server: 0, Start: at}}})
	}
	dead := sjeng.session(t, fast(), Policy{}, with(WithFaults(faults.MustInjector(
		faults.Plan{Outages: []faults.Window{{Start: 0, End: 1 << 62}}})))...)
	dead.sess.cooldown = simtime.FromSeconds(3600)
	return append(shapes,
		run("link-outage", twolf.session(t, fast(), Policy{}, with(WithFaults(faults.MustInjector(faults.Plan{
			Seed: 6, DropRate: 0.1, CorruptRate: 0.02, Outages: []faults.Window{{Start: mid, End: 1 << 62}}})))...)),
		run("mcf-lossy", mcf.session(t, fast(), Policy{}, with(WithFaults(faults.MustInjector(lossy)))...)),
		run("sjeng-lossy", sjeng.session(t, fast(), Policy{}, with(WithFaults(faults.MustInjector(lossy)))...)),
		run("dead-link", dead),
		run("crash-retry", twolf.session(t, fast(), Policy{}, with(server(faults.Crash, mid), WithMigration())...)),
		run("drain-migrate", mcf.session(t, fast(), Policy{}, with(server(faults.Drain, simtime.Second), WithMigration())...)),
	)
}

// TestLatencyReplayMatchesSessionStats: the latency populations replayed
// from a session's trace agree with what the runtime counted — one e2e
// value per offload summing to E2ELatency, one backoff per retry, one
// migration per migration — on every shape, and each shape exercises the
// path it is named for.
func TestLatencyReplayMatchesSessionStats(t *testing.T) {
	for _, sh := range replayShapes(t) {
		st := sh.sess.Stats
		exercised := map[string]bool{
			"fault-free":    st.Offloads == 1 && st.Retries == 0,
			"link-outage":   st.Fallbacks == 1 && st.Retries > 0,
			"mcf-lossy":     st.Retries > 0,
			"sjeng-lossy":   st.Retries > 0 && st.Offloads > 1,
			"dead-link":     st.Fallbacks == 1 && st.Declines > 0,
			"crash-retry":   st.CrashRetries == 1 && st.Fallbacks == 0,
			"drain-migrate": st.Migrations == 1,
		}[sh.name]
		if !exercised {
			t.Errorf("%s: shape is vacuous: stats %+v", sh.name, st)
		}
		l := analyze.ReplayLatencies(sh.events)
		var e2e simtime.PS
		for _, d := range l.E2E {
			e2e += d
		}
		if len(l.E2E) != st.Offloads || e2e != st.E2ELatency {
			t.Errorf("%s: replayed %d offloads summing to %v, stats say %d summing to %v",
				sh.name, len(l.E2E), e2e, st.Offloads, st.E2ELatency)
		}
		if len(l.Backoff) != st.Retries {
			t.Errorf("%s: replayed %d backoffs, stats say %d retries", sh.name, len(l.Backoff), st.Retries)
		}
		if len(l.Migration) != st.Migrations {
			t.Errorf("%s: replayed %d migrations, stats say %d", sh.name, len(l.Migration), st.Migrations)
		}
	}
}

// TestBreakdownMatchesTracedSpans: on every shape whose offloads all
// complete remotely, Breakdown's components equal the traced spans they
// attribute — every attempt's first request message, every remote page
// fault, remote I/O and write-back — and partition each offload's total. A
// crash-retried offload keeps its lost first attempt: that attempt's request
// and remote I/O are communication, not compute.
func TestBreakdownMatchesTracedSpans(t *testing.T) {
	for _, sh := range replayShapes(t) {
		if sh.sess.Stats.Fallbacks > 0 {
			continue
		}
		var want analyze.Offload
		request := false
		for _, ev := range sh.events {
			switch {
			case ev.Kind == obs.KPrefetch:
				request = true
			case ev.Kind == obs.KMessage && ev.Name == "to_server" && request:
				want.Init += ev.Dur
				request = false
			case ev.Kind == obs.KPageFault && ev.Name == "remote":
				want.Fault += ev.Dur
			case ev.Kind == obs.KRemoteIO:
				want.IO += ev.Dur
			case ev.Kind == obs.KWriteBack:
				want.WriteBack += ev.Dur
			}
		}
		var got analyze.Offload
		sum := analyze.Breakdown(sh.events)
		for _, o := range sum.Offloads {
			if o.Init+o.Compute+o.Fault+o.IO+o.WriteBack != o.Total {
				t.Errorf("%s: components of %+v do not partition its total", sh.name, o)
			}
			got.Init += o.Init
			got.Fault += o.Fault
			got.IO += o.IO
			got.WriteBack += o.WriteBack
		}
		if len(sum.Offloads) != sh.sess.Stats.Offloads || sum.Total() != sh.sess.Stats.E2ELatency {
			t.Errorf("%s: %d offloads totalling %v, stats say %d totalling %v",
				sh.name, len(sum.Offloads), sum.Total(), sh.sess.Stats.Offloads, sh.sess.Stats.E2ELatency)
		}
		if got != want {
			t.Errorf("%s: breakdown init/fault/io/writeback %v/%v/%v/%v, traced spans %v/%v/%v/%v", sh.name,
				got.Init, got.Fault, got.IO, got.WriteBack, want.Init, want.Fault, want.IO, want.WriteBack)
		}
	}
}
