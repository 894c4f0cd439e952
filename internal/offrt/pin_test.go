package offrt

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// sessionDigest runs the session to completion under a fresh tracer and
// hashes everything an observer can see of it: the full event stream, the
// session / link / per-task counters, the Figure 7 buckets, both final
// clocks, the radio energy under both power models, and the program's own
// result (output, exit code, semantic memory).
func sessionDigest(t *testing.T, mk func(tr *obs.Tracer) *testEnv) (string, *testEnv) {
	t.Helper()
	tr := obs.NewTracer(1 << 18)
	env := mk(tr)
	code, err := env.sess.RunMobile()
	if err != nil {
		t.Fatal(err)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("ring dropped %d events — the digest would cover a truncated stream", d)
	}
	s := env.sess
	h := sha256.New()
	for _, e := range tr.Events() {
		fmt.Fprintf(h, "%d %d %d %d %q %d %d %d %d %d\n",
			e.Time, e.Dur, e.Kind, e.Track, e.Name, e.A0, e.A1, e.A2, e.A3, e.Job)
	}
	fmt.Fprintf(h, "stats %+v\n", s.Stats)
	ls := s.LinkStats
	fmt.Fprintf(h, "link %d %d %d %d %d injected %d\n", ls.MsgsToServer, ls.MsgsToMobile,
		ls.BytesToServer, ls.BytesToMobile, ls.CommTimeMobile, ls.Injector.Stats().Total())
	ids := make([]int, 0, len(s.PerTask))
	for id := range s.PerTask {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "task %d %+v\n", id, *s.PerTask[id])
	}
	fmt.Fprintf(h, "comp %v server-compute %d clocks %d %d\n",
		s.Comp, s.ServerCompute, env.mobile.Clock, env.server.Clock)
	fmt.Fprintf(h, "energy %x %x\n",
		s.Recorder.EnergyMJ(energy.FastModel()), s.Recorder.EnergyMJ(energy.SlowModel()))
	fmt.Fprintf(h, "exit %d memory %x output %q\n", code, memFingerprint(s.Mobile.Mem), env.io.Out.String())
	return fmt.Sprintf("%d:%x", tr.Len(), h.Sum(nil)[:8]), env
}

// memFingerprint hashes the memory Session.MemDigest covers — the present
// pages in order, stacks and all-zero pages left out — with SHA-256 instead
// of mem.Digest, so the pins below hold whatever hash function Digest uses.
func memFingerprint(mm *mem.Memory) []byte {
	h := sha256.New()
	zero := make([]byte, mem.PageSize)
pages:
	for _, pn := range mm.PresentPages() {
		lo := mem.PageAddr(pn)
		for _, r := range mem.StackRanges() {
			if lo < r.Hi && lo+mem.PageSize > r.Lo {
				continue pages
			}
		}
		data := mm.PageData(pn)
		if bytes.Equal(data, zero) {
			continue
		}
		fmt.Fprintf(h, "%d:", pn)
		h.Write(data)
	}
	return h.Sum(nil)
}

// verbose is a program whose one offload target prints ~19 KB in short
// lines, so a batching session crosses the 8 KB flush threshold mid-task
// (no Table 4 workload prints that much).
var verbose = &workloads.Workload{
	Name: "verbose",
	Build: func() *ir.Module {
		mod := ir.NewModule("verbose")
		b := ir.NewBuilder(mod)
		report := b.NewFunc("report", ir.I64, ir.P("lines", ir.I32))
		acc := b.Alloca(ir.I64)
		b.Store(acc, ir.Int64(1))
		b.For("lines", ir.Int(0), report.Params[0], ir.Int(1), func(i ir.Value) {
			b.For("work", ir.Int(0), ir.Int(400), ir.Int(1), func(k ir.Value) {
				b.Store(acc, b.Add(b.Mul(b.Load(acc), ir.Int64(6364136223846793005)), ir.Int64(1442695040888963407)))
			})
			b.CallExtern(ir.ExternPrintf, b.Str("line %d state %d\n"), i, b.Load(acc))
		})
		b.Ret(b.Load(acc))
		b.NewFunc("main", ir.I32)
		b.CallExtern(ir.ExternPrintf, b.Str("final %d\n"), b.Call(report, ir.Int(600)))
		b.Ret(ir.Int(0))
		b.Finish()
		return mod
	},
	ProfileIO: func() *interp.StdIO { return interp.NewStdIO(nil) },
	EvalIO:    func() *interp.StdIO { return interp.NewStdIO(nil) },
	CostScale: 3000,
}

// TestSessionTraceDigestPinned pins the session's whole observable
// behaviour — the offrt counterpart of the fleet's TestTraceDigestPinned.
// The digests were recorded before the seven server-side services were
// folded onto one remote-service primitive, and re-recorded — same code,
// same sessions — when the memory term became memFingerprint and when events
// lost their parent field, and re-recorded when the gate took its R from
// arch.PerformanceRatio: every gate event's A3 carries R, and the shapes
// whose server abandons the task (link-outage, crash-retry, drain-decline)
// wait a shorter offload deadline. Any reordered,
// dropped or altered event, any counter, clock, energy, memory or output byte
// that moves on any of these session shapes changes them.
func TestSessionTraceDigestPinned(t *testing.T) {
	twolf := workloadPair(t, "300.twolf") // remote open/read/close + r_printf
	gzip := workloadPair(t, "164.gzip")   // starred: declines on 802.11n
	mcf := workloadPair(t, "429.mcf")
	sphinx := workloadPair(t, "482.sphinx3") // 36 r_printf calls per offload
	sjeng := workloadPair(t, "458.sjeng")    // three invocations
	fast := func() *netsim.Link { return scaledLink(netsim.Fast80211AC()) }
	slow := func() *netsim.Link { return scaledLink(netsim.Slow80211N()) }
	loud := partition(t, verbose, fast().BandwidthBps)

	// Fault instants are placed inside the fault-free fast-link offload.
	var start, dur simtime.PS
	{
		tr := obs.NewTracer(1 << 18)
		env := twolf.session(t, fast(), Policy{}, WithTracer(tr))
		if _, err := env.sess.RunMobile(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range tr.Events() {
			if ev.Kind == obs.KOffload {
				start, dur = ev.Time, ev.Dur
			}
		}
		if dur == 0 {
			t.Fatal("fault-free twolf run traced no offload")
		}
	}
	mid := start + dur/2
	outage := faults.Plan{Seed: 6, DropRate: 0.1, CorruptRate: 0.02,
		Outages: []faults.Window{{Start: mid, End: mid + 4*dur}}}
	serverEvent := func(kind faults.ServerKind, at simtime.PS) *faults.ServerPlan {
		return &faults.ServerPlan{Events: []faults.ServerEvent{{Kind: kind, Server: 0, Start: at}}}
	}
	printfs := func(s *Session) (n int) {
		for _, e := range s.Tracer.Events() {
			if e.Kind == obs.KRemoteIO && e.Name == "printf" {
				n++
			}
		}
		return n
	}

	for _, tc := range []struct {
		name string
		mk   func(tr *obs.Tracer) *testEnv
		// exercised reports whether the shape took the path it is named for.
		exercised func(s *Session) bool
		want      string
	}{
		{"remote-io/fast", func(tr *obs.Tracer) *testEnv {
			return twolf.session(t, fast(), Policy{}, WithTracer(tr))
		}, func(s *Session) bool { return s.Stats.Offloads == 1 && s.Comp[interp.CompRemoteIO] > 0 }, "1673:65285a1b0582b108"},
		{"remote-io/slow", func(tr *obs.Tracer) *testEnv {
			return twolf.session(t, slow(), Policy{}, WithTracer(tr))
		}, func(s *Session) bool { return s.Stats.Offloads == 1 && s.Comp[interp.CompRemoteIO] > 0 }, "1673:7609ba6256f27c19"},
		{"decline/gzip-slow", func(tr *obs.Tracer) *testEnv {
			return gzip.session(t, slow(), Policy{}, WithTracer(tr))
		}, func(s *Session) bool { return s.Stats.Declines > 0 && s.Stats.Offloads == 0 }, "3:15c6060c86143c62"},
		{"link-outage", func(tr *obs.Tracer) *testEnv {
			return twolf.session(t, fast(), Policy{}, WithTracer(tr), WithFaults(faults.MustInjector(outage)))
		}, func(s *Session) bool {
			return s.Stats.Aborts == 1 && s.Stats.Fallbacks == 1 && s.Stats.Retries > 0 && s.quarantineUntil > 0
		}, "1015:27c7155c03001717"},
		{"dead-link/quarantine", func(tr *obs.Tracer) *testEnv {
			// The offload request itself never arrives: fallback without the
			// server, then the cool-down declines the later invocations.
			env := sjeng.session(t, fast(), Policy{}, WithTracer(tr),
				WithFaults(faults.MustInjector(faults.Plan{Outages: []faults.Window{{Start: 0, End: 1 << 62}}})))
			env.sess.cooldown = simtime.FromSeconds(3600)
			return env
		}, func(s *Session) bool { return s.Stats.Aborts == 0 && s.Stats.Fallbacks == 1 && s.Stats.Declines == 2 }, "21:c3f189f9ec0a3d8f"},
		{"crash-retry", func(tr *obs.Tracer) *testEnv {
			return twolf.session(t, fast(), Policy{}, WithTracer(tr),
				WithServerFaults(serverEvent(faults.Crash, mid)), WithMigration())
		}, func(s *Session) bool { return s.Stats.CrashRetries == 1 && s.Stats.Fallbacks == 0 }, "2584:460f6773be4244f5"},
		{"drain-decline", func(tr *obs.Tracer) *testEnv {
			// twolf's evaluation input outruns its profile, so Equation 1 sees
			// no remaining work worth shipping: the drain aborts to fallback.
			return twolf.session(t, fast(), Policy{}, WithTracer(tr),
				WithServerFaults(serverEvent(faults.Drain, mid)), WithMigration())
		}, func(s *Session) bool { return s.Stats.Migrations == 0 && s.Stats.Aborts == 1 && s.Stats.Fallbacks == 1 }, "867:86309490565d76ec"},
		{"drain-migrate", func(tr *obs.Tracer) *testEnv {
			return mcf.session(t, fast(), Policy{}, WithTracer(tr),
				WithServerFaults(serverEvent(faults.Drain, simtime.Second)), WithMigration())
		}, func(s *Session) bool { return s.Stats.Migrations == 1 && s.Stats.Fallbacks == 0 }, "23:9f06162facfe77d5"},
		{"policy/batch-output", func(tr *obs.Tracer) *testEnv {
			return sphinx.session(t, fast(), Policy{BatchOutput: true}, WithTracer(tr))
		}, func(s *Session) bool { return printfs(s) == 1 }, "20:d859bf109f1161d3"},
		{"policy/batch-threshold", func(tr *obs.Tracer) *testEnv {
			return loud.session(t, fast(), Policy{BatchOutput: true, ForceOffload: true}, WithTracer(tr))
		}, func(s *Session) bool { return printfs(s) == 3 }, "24:5111d5888f6db133"},
		{"policy/unbatched", func(tr *obs.Tracer) *testEnv {
			return sphinx.session(t, fast(), Policy{}, WithTracer(tr))
		}, func(s *Session) bool { return printfs(s) == 36 }, "160:c4b5ee932a4994be"},
		{"policy/no-compress", func(tr *obs.Tracer) *testEnv {
			return twolf.session(t, fast(), Policy{NoCompress: true}, WithTracer(tr))
		}, func(s *Session) bool { return s.Stats.WriteBackWireBytes >= s.Stats.RawBytesToMobile }, "1673:44b66cfc650088bb"},
		{"policy/no-prefetch", func(tr *obs.Tracer) *testEnv {
			return twolf.session(t, fast(), Policy{NoPrefetch: true}, WithTracer(tr))
		}, func(s *Session) bool { return s.Stats.PrefetchPages == 0 && s.Stats.Faults > 1 }, "1697:659f3bef0f6ba919"},
	} {
		got, env := sessionDigest(t, tc.mk)
		if !tc.exercised(env.sess) {
			t.Errorf("%s: shape is vacuous: stats %+v", tc.name, env.sess.Stats)
		}
		if got != tc.want {
			t.Errorf("%s: session digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
