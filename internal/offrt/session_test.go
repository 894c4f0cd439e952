package offrt

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// buildHeavy builds a program with one clearly profitable target that
// touches a heap buffer and prints a digest.
func buildHeavy() *ir.Module {
	mod := ir.NewModule("heavy")
	b := ir.NewBuilder(mod)
	data := b.GlobalVar("data", ir.Ptr(ir.I64))

	crunch := b.NewFunc("crunch", ir.I64, ir.P("n", ir.I32))
	{
		acc := b.Alloca(ir.I64)
		b.Store(acc, ir.Int64(0))
		arr := b.Load(data)
		b.For("rounds", ir.Int(0), ir.Int(60), ir.Int(1), func(r ir.Value) {
			b.For("scan", ir.Int(0), b.Convert(ir.ConvZExt, b.F.Params[0], ir.I32), ir.Int(1), func(i ir.Value) {
				p := b.Index(arr, i)
				v := b.Load(p)
				nv := b.Add(b.Mul(v, ir.Int64(31)), ir.Int64(7))
				b.Store(p, nv)
				b.Store(acc, b.Xor(b.Load(acc), nv))
			})
		})
		b.CallExtern(ir.ExternPrintf, b.Str("digest %d\n"), b.Load(acc))
		b.Ret(b.Load(acc))
	}

	b.NewFunc("main", ir.I32)
	n := int64(1024)
	raw := b.CallExtern(ir.ExternMalloc, ir.Int(8*n))
	arr := b.Convert(ir.ConvBitcast, raw, ir.Ptr(ir.I64))
	b.Store(data, arr)
	b.For("fill", ir.Int(0), ir.Int(n), ir.Int(1), func(i ir.Value) {
		b.Store(b.Index(arr, i), b.Convert(ir.ConvSExt, i, ir.I64))
	})
	d := b.Call(crunch, ir.Int(n))
	b.CallExtern(ir.ExternPrintf, b.Str("final %d\n"), d)
	b.Ret(ir.Int(0))
	b.Finish()
	return mod
}

// heavy is the suite's default guest: setup partitions it.
var heavy = guestAt("heavy", buildHeavy, 3000)

func TestOffloadRoundTripSemantics(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true})
	code, err := env.sess.RunMobile()
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code %d", code)
	}
	out := env.io.Out.String()
	// The digest printed remotely and the final digest printed locally
	// (after dirty write-back) must agree.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("output = %q", out)
	}
	d1 := strings.TrimPrefix(lines[0], "digest ")
	d2 := strings.TrimPrefix(lines[1], "final ")
	if d1 != d2 {
		t.Errorf("remote digest %s != local final %s (dirty write-back broken?)", d1, d2)
	}
	st := env.sess.PerTask[1]
	if st.Offloads != 1 {
		t.Errorf("offloads = %d, want 1", st.Offloads)
	}
	if st.TrafficBytes <= 0 || st.DirtyPages == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
}

func TestDeclineOnHugeMemory(t *testing.T) {
	// Unit-test the dynamic gate: a gzip-like task (short compute, huge
	// memory) must be declined on the slow network and accepted on the
	// fast one (the starred bars of Figure 6).
	env := setup(t, netsim.Slow80211N(), Policy{})
	gzipLike := TaskSpec{TaskID: 99, Name: "spec_compress",
		TimePerInvocation: simtime.FromSeconds(15.3), MemBytes: 150_000_000}
	env.sess.tasks[99] = gzipLike
	env.sess.PerTask[99] = &TaskStats{}
	if env.sess.Gate(env.mobile, 99) {
		t.Error("gzip-like task should be declined on 802.11n")
	}
	if env.sess.PerTask[99].Declines != 1 {
		t.Error("decline not recorded")
	}

	fast := setup(t, netsim.Fast80211AC(), Policy{})
	fast.sess.tasks[99] = gzipLike
	fast.sess.PerTask[99] = &TaskStats{}
	if !fast.sess.Gate(fast.mobile, 99) {
		t.Error("gzip-like task should be accepted on 802.11ac")
	}
	// Drain the pending server goroutines.
	if err := env.sess.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := fast.sess.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestNoPrefetchCausesFaults(t *testing.T) {
	with := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true})
	if _, err := with.sess.RunMobile(); err != nil {
		t.Fatal(err)
	}
	without := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true, NoPrefetch: true})
	if _, err := without.sess.RunMobile(); err != nil {
		t.Fatal(err)
	}
	if without.sess.PerTask[1].Faults <= with.sess.PerTask[1].Faults {
		t.Errorf("NoPrefetch faults %d should exceed prefetch faults %d",
			without.sess.PerTask[1].Faults, with.sess.PerTask[1].Faults)
	}
	// Per-page round trips cost more wall time than the batched prefetch.
	if without.mobile.Clock <= with.mobile.Clock {
		t.Error("copy-on-demand-only should be slower than batched prefetch")
	}
}

func TestCompressionReducesWireBytes(t *testing.T) {
	comp := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true})
	if _, err := comp.sess.RunMobile(); err != nil {
		t.Fatal(err)
	}
	raw := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true, NoCompress: true})
	if _, err := raw.sess.RunMobile(); err != nil {
		t.Fatal(err)
	}
	if comp.sess.LinkStats.BytesToMobile >= raw.sess.LinkStats.BytesToMobile {
		t.Errorf("compressed bytes %d should be below raw %d",
			comp.sess.LinkStats.BytesToMobile, raw.sess.LinkStats.BytesToMobile)
	}
	if comp.sess.Stats.RawBytesToMobile != raw.sess.Stats.RawBytesToMobile {
		t.Errorf("pre-compression sizes should match: %d vs %d",
			comp.sess.Stats.RawBytesToMobile, raw.sess.Stats.RawBytesToMobile)
	}
}

func TestServerColdAfterFinalize(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true})
	if _, err := env.sess.RunMobile(); err != nil {
		t.Fatal(err)
	}
	if got := len(env.server.Mem.PresentPages()); got != 0 {
		t.Errorf("server retains %d pages after finalization; the offload process should terminate without keeping data", got)
	}
}

func TestClockMonotoneAcrossOffload(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{ForceOffload: true})
	before := env.mobile.Clock
	if _, err := env.sess.RunMobile(); err != nil {
		t.Fatal(err)
	}
	if env.mobile.Clock <= before {
		t.Error("mobile clock did not advance")
	}
	if env.sess.Comp[interp.CompComm] <= 0 {
		t.Error("communication time missing")
	}
	var sum simtime.PS
	for _, c := range env.sess.Comp {
		sum += c
	}
	// The component sum should be within 25% of the wall clock (they
	// partition the run up to small unattributed slices).
	ratio := float64(sum) / float64(env.mobile.Clock)
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("component sum/wall = %.2f, want ~1", ratio)
	}
}

func TestDynamicGateReactsToDegradingNetwork(t *testing.T) {
	// The paper's dynamic estimation exists for "unexpected slow network
	// environments": when the link degrades mid-run, later invocations of
	// the same task must be declined while the early ones offload.
	// The heavy program calls crunch once; this one has three gated
	// invocations.
	mod := ir.NewModule("thrice")
	b := ir.NewBuilder(mod)
	data := b.GlobalVar("data", ir.Ptr(ir.I64))
	crunch := b.NewFunc("crunch", ir.I64, ir.P("round", ir.I32))
	acc := b.Alloca(ir.I64)
	b.Store(acc, ir.Int64(0))
	arr := b.Load(data)
	b.For("work", ir.Int(0), ir.Int(20000), ir.Int(1), func(i ir.Value) {
		idx := b.Rem(i, ir.Int(4096))
		v := b.Load(b.Index(arr, idx))
		b.Store(b.Index(arr, idx), b.Add(b.Mul(v, ir.Int64(13)), ir.Int64(1)))
		b.Store(acc, b.Xor(b.Load(acc), v))
	})
	b.Ret(b.Load(acc))
	b.NewFunc("main", ir.I32)
	raw := b.CallExtern(ir.ExternMalloc, ir.Int(8*4096))
	b.Store(data, b.Convert(ir.ConvBitcast, raw, ir.Ptr(ir.I64)))
	b.CallExtern(ir.ExternMemset, raw, ir.Int(5), ir.Int(8*4096))
	total := b.Alloca(ir.I64)
	b.Store(total, ir.Int64(0))
	b.For("rounds", ir.Int(0), ir.Int(3), ir.Int(1), func(r ir.Value) {
		ack := b.Alloca(ir.I32)
		b.CallExtern(ir.ExternScanf, b.Str("%d"), ack)
		b.Store(total, b.Add(b.Load(total), b.Call(crunch, r)))
	})
	b.CallExtern(ir.ExternPrintf, b.Str("total %d\n"), b.Load(total))
	b.Ret(ir.Int(0))
	b.Finish()

	mkIO := func() *interp.StdIO { return interp.NewStdIO([]int64{1, 1, 1}) }
	thrice := &workloads.Workload{Name: "thrice", Build: func() *ir.Module { return mod },
		ProfileIO: mkIO, EvalIO: mkIO, CostScale: 40000}

	// Profile + compile on the healthy link.
	p := partition(t, thrice, netsim.Fast80211AC().BandwidthBps)

	// Run locally once to learn when the first invocation finishes, then
	// degrade the link to dial-up speeds right after it.
	spec := arch.ARM32()
	local := mod.Clone("l")
	ir.Lower(local, spec, spec)
	lp, err := interp.Compile(local, interp.CompileConfig{Name: "l", Spec: spec, InitUVAGlobals: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lm := lp.NewInstance(interp.WithIO(mkIO()), interp.WithCostScale(thrice.CostScale))
	if _, err := lm.RunMain(); err != nil {
		t.Fatal(err)
	}
	// The offloaded run moves ~5x faster than local, so place the
	// degradation instant just after the first offloaded invocation would
	// complete (local/20 is comfortably past the setup + first gate).
	firstThird := lm.Clock / 50

	link := netsim.Fast80211AC()
	link.Phases = []netsim.Phase{
		{Until: firstThird, BandwidthBps: link.BandwidthBps},
		{Until: 1 << 62, BandwidthBps: 2_000}, // 2 kbps: effectively down
	}

	tr := obs.NewTracer(0)
	sess := p.session(t, link, Policy{}, WithTracer(tr)).sess
	if _, err := sess.RunMobile(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KGate {
			t.Logf("gate: clock=%v bw=%d verdict=%s (degrade at %v)", ev.Time, ev.A2, ev.Name, firstThird)
		}
	}

	offloads, declines := 0, 0
	for _, st := range sess.PerTask {
		offloads += st.Offloads
		declines += st.Declines
	}
	if offloads == 0 {
		t.Error("the first invocation (healthy link) should offload")
	}
	if declines == 0 {
		t.Error("post-degradation invocations should be declined")
	}
	if offloads+declines != 3 {
		t.Errorf("gate decisions = %d offloads + %d declines, want 3 total", offloads, declines)
	}
	t.Logf("degrading network: %d offloaded, %d declined (local fallback)", offloads, declines)
}
