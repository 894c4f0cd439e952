package offrt

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/netsim"
)

// FuzzSessionFaults drives the whole session protocol under arbitrary fault
// plans: a link spec in faults.Parse syntax, a server spec in
// faults.ParseServer syntax, and whether migration's spare host stands by.
// Inputs either parser or NewSession refuses are skipped. The program is
// 300.twolf without prefetch, which exercises all seven server-side
// services. Every accepted run must end without error, match the
// fault-free run in exit code, output and stack-excluded memory digest, and
// leave the server holding no private page: nothing of the offload's data
// (a server no request reached still shows its binary's image). The seeds are the shapes the trace
// replays cover — lossy, a mid-task outage, a dead link, a crash retried on
// the spare, a drain migration — plus a slowdown the health monitor
// migrates away from; the corpus runs in well under a second.
func FuzzSessionFaults(f *testing.F) {
	twolf := workloadPair(f, "300.twolf")
	pol := Policy{NoPrefetch: true}
	link := scaledLink(netsim.Fast80211AC())
	clean, err := twolf.newEnv(link, pol)
	if err != nil {
		f.Fatal(err)
	}
	wantCode, err := clean.sess.RunMobile()
	if err != nil {
		f.Fatal(err)
	}
	wantOut, wantMem := clean.io.Out.String(), clean.sess.MemDigest()

	// The fault-free offload runs from about 66 ms to 29.2 s.
	for _, seed := range []struct {
		link, server string
		migrate      bool
	}{
		{"drop=0.2,corrupt=0.05,delay=0.1,seed=3", "seed=0", false},
		{"drop=0.1,corrupt=0.02,outage=15s-100000s,seed=6", "seed=0", false},
		{"outage=0s-100000s,seed=0", "seed=0", false},
		{"seed=0", "crash=0@300ms", true},
		{"seed=0", "drain=0@300ms", true},
		{"seed=0", "slow=0@0s-1000sx8", true},
	} {
		f.Add(seed.link, seed.server, seed.migrate)
	}
	f.Fuzz(func(t *testing.T, linkSpec, serverSpec string, migrate bool) {
		lp, err := faults.Parse(linkSpec)
		if err != nil {
			return
		}
		sp, err := faults.ParseServer(serverSpec)
		if err != nil {
			return
		}
		opts := []Option{WithFaults(faults.MustInjector(*lp)), WithServerFaults(sp)}
		if migrate {
			opts = append(opts, WithMigration())
		}
		env, err := twolf.newEnv(link, pol, opts...)
		if err != nil {
			return
		}
		code, err := env.sess.RunMobile()
		if err != nil {
			t.Fatalf("link %q, server %q, migrate %v: %v", linkSpec, serverSpec, migrate, err)
		}
		if code != wantCode || env.io.Out.String() != wantOut || env.sess.MemDigest() != wantMem {
			t.Errorf("link %q, server %q, migrate %v: diverged from the fault-free run: code %d (want %d), output equal %v, digest equal %v",
				linkSpec, serverSpec, migrate, code, wantCode, env.io.Out.String() == wantOut, env.sess.MemDigest() == wantMem)
		}
		if n := env.server.Mem.ResidentPrivateBytes(); n != 0 {
			t.Errorf("link %q, server %q, migrate %v: server holds %d private bytes after the run", linkSpec, serverSpec, migrate, n)
		}
	})
}
