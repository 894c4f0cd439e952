package offrt

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// buildChatty builds a heavy task that prints a running digest every
// round: the per-round r_printf calls are remote-service boundaries, so
// the server heartbeats steadily through the whole task instead of only
// at its edges. Migration tests need exactly that — a fault scheduled
// mid-task is detected at the next beat, with substantial work left.
func buildChatty() *ir.Module {
	mod := ir.NewModule("chatty")
	b := ir.NewBuilder(mod)
	data := b.GlobalVar("data", ir.Ptr(ir.I64))

	crunch := b.NewFunc("crunch", ir.I64, ir.P("n", ir.I32))
	{
		acc := b.Alloca(ir.I64)
		b.Store(acc, ir.Int64(0))
		arr := b.Load(data)
		b.For("rounds", ir.Int(0), ir.Int(40), ir.Int(1), func(r ir.Value) {
			b.For("scan", ir.Int(0), b.Convert(ir.ConvZExt, b.F.Params[0], ir.I32), ir.Int(1), func(i ir.Value) {
				p := b.Index(arr, i)
				v := b.Load(p)
				nv := b.Add(b.Mul(v, ir.Int64(31)), ir.Int64(7))
				b.Store(p, nv)
				b.Store(acc, b.Xor(b.Load(acc), nv))
			})
			b.CallExtern(ir.ExternPrintf, b.Str("round %d\n"), b.Load(acc))
		})
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

// chatty is the migration tests' guest.
var chatty = guestAt("chatty", buildChatty, 3000)

// cleanRun runs the fault-free reference and returns its output, memory
// digest, and the [start, start+dur) window of the (single) offload, so
// fault schedules can target the offload's midpoint deterministically.
func cleanRun(t *testing.T) (out string, digest uint64, start, dur simtime.PS) {
	t.Helper()
	tr := obs.NewTracer(0)
	env := setupFor(t, chatty, netsim.Fast80211AC(), Policy{ForceOffload: true}, WithTracer(tr))
	if code, err := env.sess.RunMobile(); err != nil || code != 0 {
		t.Fatalf("clean run: code %d, err %v", code, err)
	}
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KOffload {
			start, dur = ev.Time, ev.Dur
		}
	}
	if dur == 0 {
		t.Fatal("clean run: no offload traced")
	}
	return env.io.Out.String(), env.sess.MemDigest(), start, dur
}

// TestMigrationSmoke is the `make migsmoke` gate: force one mid-offload
// migration (a scheduled drain halfway through the task) and prove the
// migrated run is bit-identical to the fault-free one — output and final
// memory digest — while the checkpoint scales with dirty pages, not with
// the program's footprint.
func TestMigrationSmoke(t *testing.T) {
	wantOut, wantDig, start, dur := cleanRun(t)

	plan := &faults.ServerPlan{Events: []faults.ServerEvent{
		{Kind: faults.Drain, Server: 0, Start: start + dur/2},
	}}
	env := setupFor(t, chatty, netsim.Fast80211AC(), Policy{ForceOffload: true},
		WithServerFaults(plan), WithMigration())
	if code, err := env.sess.RunMobile(); err != nil || code != 0 {
		t.Fatalf("migrated run: code %d, err %v", code, err)
	}

	st := env.sess.Stats
	if st.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1 (Aborts %d, Fallbacks %d)", st.Migrations, st.Aborts, st.Fallbacks)
	}
	if st.Fallbacks != 0 || st.CrashRetries != 0 {
		t.Errorf("Fallbacks = %d, CrashRetries = %d, want 0/0", st.Fallbacks, st.CrashRetries)
	}
	if got := env.io.Out.String(); got != wantOut {
		t.Errorf("migrated output differs:\n got %q\nwant %q", got, wantOut)
	}
	if got := env.sess.MemDigest(); got != wantDig {
		t.Errorf("migrated digest = %#x, want %#x", got, wantDig)
	}

	// Migration cost scales with mutated state, not footprint: the shipped
	// checkpoint must stay below the mobile's full resident page set.
	footprint := len(env.mobile.Mem.PresentPages())
	if st.MigratedPages <= 0 || st.MigratedPages >= footprint {
		t.Errorf("MigratedPages = %d, want in (0, %d)", st.MigratedPages, footprint)
	}
	if st.MigratedBytes <= 0 {
		t.Errorf("MigratedBytes = %d, want > 0", st.MigratedBytes)
	}

	// A freshly-bound instance has mutated nothing: its checkpoint ships
	// zero pages regardless of how large the Program image is.
	if fresh := env.pair.server.NewInstance().CheckpointState(); fresh.NumPages() != 0 {
		t.Errorf("fresh instance checkpoint ships %d pages, want 0", fresh.NumPages())
	}
}

// TestCrashRetryOnSpare: a crash destroys the in-flight state, so there
// is nothing to migrate — but with a spare standing by the mobile re-sends
// the offload from scratch instead of degrading to local execution.
func TestCrashRetryOnSpare(t *testing.T) {
	wantOut, wantDig, start, dur := cleanRun(t)

	plan := &faults.ServerPlan{Events: []faults.ServerEvent{
		{Kind: faults.Crash, Server: 0, Start: start + dur/2},
	}}
	env := setupFor(t, chatty, netsim.Fast80211AC(), Policy{ForceOffload: true},
		WithServerFaults(plan), WithMigration())
	if code, err := env.sess.RunMobile(); err != nil || code != 0 {
		t.Fatalf("crash run: code %d, err %v", code, err)
	}
	st := env.sess.Stats
	if st.CrashRetries != 1 || st.Migrations != 0 || st.Fallbacks != 0 {
		t.Fatalf("CrashRetries/Migrations/Fallbacks = %d/%d/%d, want 1/0/0 (Aborts %d)",
			st.CrashRetries, st.Migrations, st.Fallbacks, st.Aborts)
	}
	if got := env.io.Out.String(); got != wantOut {
		t.Errorf("retried output differs:\n got %q\nwant %q", got, wantOut)
	}
	if got := env.sess.MemDigest(); got != wantDig {
		t.Errorf("retried digest = %#x, want %#x", got, wantDig)
	}
}

// TestCrashFallbackWithoutSpare keeps the paper's baseline behavior: no
// migration layer, a crashed server, and the mobile's own deadline route
// the task back to local execution with identical results.
func TestCrashFallbackWithoutSpare(t *testing.T) {
	wantOut, wantDig, start, dur := cleanRun(t)

	plan := &faults.ServerPlan{Events: []faults.ServerEvent{
		{Kind: faults.Crash, Server: 0, Start: start + dur/2},
	}}
	env := setupFor(t, chatty, netsim.Fast80211AC(), Policy{ForceOffload: true}, WithServerFaults(plan))
	if code, err := env.sess.RunMobile(); err != nil || code != 0 {
		t.Fatalf("fallback run: code %d, err %v", code, err)
	}
	st := env.sess.Stats
	if st.Fallbacks != 1 || st.Migrations != 0 || st.CrashRetries != 0 {
		t.Fatalf("Fallbacks/Migrations/CrashRetries = %d/%d/%d, want 1/0/0", st.Fallbacks, st.Migrations, st.CrashRetries)
	}
	if got := env.io.Out.String(); got != wantOut {
		t.Errorf("fallback output differs:\n got %q\nwant %q", got, wantOut)
	}
	if got := env.sess.MemDigest(); got != wantDig {
		t.Errorf("fallback digest = %#x, want %#x", got, wantDig)
	}
}

// TestHealthDetectsSlowdown: a scheduled slowdown inflates heartbeat gaps
// past the EWMA deadline; after healthStrikes consecutive overruns the
// session migrates away from the degraded host, and the run stays
// bit-identical.
//
// The rows are placed by arithmetic, not by trial. chatty's profile
// predicts Tm = 13.17 s of mobile time for crunch, so at R = 5.75 its
// server budget is Tm/R = 2.29 s of compute (the clean offload's dur). Each
// of its 40 rounds is one heartbeat gap of about 57 ms of server compute,
// and every gap after the first overruns, so the monitor decides every
// healthStrikes = 3 rounds (about 170 ms). Until a slowdown starts those
// decisions finish in place. The first decision after a slowdown of factor
// f starts at s*dur has burned at most s*2.29 s + f*170 ms of compute. It
// migrates only while that is under the budget: past it the remaining work
// (Tm - R*compute) is zero and falling back locally is as cheap. So each
// row keeps s*2.29 + f*0.17 at or under 2.0 s, whatever the phase between
// its start and the monitor's three-round cycle. Factor 20 at dur/4
// (0.57 + 3.4 s) does not: it migrates or falls back on that phase.
func TestHealthDetectsSlowdown(t *testing.T) {
	wantOut, wantDig, start, dur := cleanRun(t)

	for _, tc := range []struct {
		start  simtime.PS // after the offload begins
		factor float64
	}{
		{dur / 8, 10}, // 0.29 + 1.70 = 1.99 s
		{dur / 4, 3},  // 0.57 + 0.51 = 1.08 s
		{dur / 4, 8},  // 0.57 + 1.36 = 1.93 s
		{dur / 2, 5},  // 1.14 + 0.85 = 1.99 s
	} {
		tr := obs.NewTracer(0)
		plan := &faults.ServerPlan{Events: []faults.ServerEvent{
			{Kind: faults.Slowdown, Server: 0, Start: start + tc.start, End: start + 100*dur, Factor: tc.factor},
		}}
		env := setupFor(t, chatty, netsim.Fast80211AC(), Policy{ForceOffload: true},
			WithTracer(tr), WithServerFaults(plan), WithMigration())
		if code, err := env.sess.RunMobile(); err != nil || code != 0 {
			t.Fatalf("%v x%g: slowdown run: code %d, err %v", tc.start, tc.factor, code, err)
		}
		var overruns int
		for _, ev := range tr.Events() {
			if ev.Kind == obs.KHealth {
				overruns++
			}
		}
		if overruns == 0 {
			t.Errorf("%v x%g: no health overruns traced", tc.start, tc.factor)
		}
		st := env.sess.Stats
		if st.Migrations != 1 {
			t.Errorf("%v x%g: Migrations = %d, want 1 (overruns %d, Fallbacks %d)",
				tc.start, tc.factor, st.Migrations, overruns, st.Fallbacks)
		}
		if got := env.io.Out.String(); got != wantOut {
			t.Errorf("%v x%g: output differs:\n got %q\nwant %q", tc.start, tc.factor, got, wantOut)
		}
		if got := env.sess.MemDigest(); got != wantDig {
			t.Errorf("%v x%g: digest = %#x, want %#x", tc.start, tc.factor, got, wantDig)
		}
	}
}

// TestCheckpointPayloadRoundTrip pins the MsgCheckpoint sub-encoding: a
// full encode -> wire frame -> decode cycle must reproduce the memory
// checkpoint, the I/O journal and the batched-output buffer exactly.
func TestCheckpointPayloadRoundTrip(t *testing.T) {
	src := mem.New()
	src.InstallPage(mem.PageNum(mem.HeapBase), []byte{1, 2, 3})
	src.InstallPage(mem.PageNum(mem.HeapBase)+1, []byte{4, 5, 6})
	base := mem.Snapshot(src)
	m := mem.NewOverlay(base)
	m.TrackDirty = true
	for i := 0; i < 5; i++ {
		if err := m.WriteUint(mem.HeapBase+uint32(i)*mem.PageSize, 8, uint64(i)*0x0101_0101); err != nil {
			t.Fatal(err)
		}
	}
	m.Drop(mem.PageNum(mem.HeapBase) + 2)

	s := &Session{
		ioJournal: []string{"round 1\n", "", "round 2 with \x00 bytes\n"},
		ep:        endpoint{outBuf: []byte("partial batch")},
	}
	st := &interp.State{SP: 0xdead_bee0, Mem: m.Checkpoint()}
	msg := &Message{Kind: MsgCheckpoint, TaskID: 7, SP: st.SP, Data: s.encodeCheckpoint(st)}
	wire := msg.Encode()
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != MsgCheckpoint || got.TaskID != 7 {
		t.Fatalf("frame kind/task = %v/%d", got.Kind, got.TaskID)
	}
	restored, journal, outBuf, err := s.decodeCheckpoint(got)
	if err != nil {
		t.Fatal(err)
	}
	if restored.SP != st.SP {
		t.Errorf("SP = %#x, want %#x", restored.SP, st.SP)
	}
	if len(journal) != len(s.ioJournal) {
		t.Fatalf("journal entries = %d, want %d", len(journal), len(s.ioJournal))
	}
	for i := range journal {
		if journal[i] != s.ioJournal[i] {
			t.Errorf("journal[%d] = %q, want %q", i, journal[i], s.ioJournal[i])
		}
	}
	if string(outBuf) != string(s.ep.outBuf) {
		t.Errorf("outBuf = %q, want %q", outBuf, s.ep.outBuf)
	}

	// Restoring the decoded checkpoint onto a fresh overlay of the same
	// image must reproduce the source memory exactly.
	fresh := mem.NewOverlay(base)
	fresh.Restore(restored.Mem)
	if a, b := fresh.Digest(), m.Digest(); a != b {
		t.Errorf("restored digest = %#x, want %#x", a, b)
	}
	if a, b := len(fresh.DirtyPages()), len(m.DirtyPages()); a != b {
		t.Errorf("restored dirty pages = %d, want %d", a, b)
	}

	// Truncated payloads must be rejected, not panic.
	for _, cut := range []int{1, 8, 20, len(msg.Data) - 1} {
		if cut >= len(msg.Data) {
			continue
		}
		bad := &Message{Kind: MsgCheckpoint, SP: st.SP, Data: msg.Data[:cut]}
		if _, _, _, err := s.decodeCheckpoint(bad); err == nil {
			t.Errorf("truncated payload (%d bytes) accepted", cut)
		}
	}
}
