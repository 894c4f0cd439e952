package interp

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/arch"
	"repro/internal/fleet"
	"repro/internal/ir"
	"repro/internal/mem"
)

// bindBenchModule models a session binary with a data segment worth sharing:
// a 256 KiB initialized lookup table the kernel only reads, plus a small
// scratch array it writes. Under copy-on-write binding a session's resident
// set is the scratch pages and its stack; under private-copy binding every
// session pays for the whole table.
func bindBenchModule() *ir.Module {
	mod := ir.NewModule("bindbench")
	b := ir.NewBuilder(mod)
	const tableLen = 32768 // 256 KiB of i64 init data
	init := make([]ir.Value, tableLen)
	for i := range init {
		init[i] = ir.Int64(int64(i)*2654435761 + 97)
	}
	table := b.GlobalVar("table", ir.Array(ir.I64, tableLen), init...)
	scratch := b.GlobalVar("scratch", ir.Array(ir.I64, 512))
	b.NewFunc("kern", ir.I64)
	sum := b.Alloca(ir.I64)
	b.Store(sum, ir.Int64(0))
	b.For("i", ir.Int64(0), ir.Int64(2048), ir.Int64(1), func(i ir.Value) {
		v := b.Load(b.Index(table, b.And(b.Mul(i, ir.Int64(37)), ir.Int64(tableLen-1))))
		k := b.And(i, ir.Int64(511))
		b.Store(b.Index(scratch, k), b.Add(v, b.Load(b.Index(scratch, k))))
		b.Store(sum, b.Add(b.Load(sum), v))
	})
	b.Ret(b.Load(sum))
	b.Finish()
	return mod
}

func bindBenchLowered(tb testing.TB) (*ir.Module, CompileConfig) {
	tb.Helper()
	work := bindBenchModule().Clone("bindbench")
	spec := arch.ARM32()
	ir.Lower(work, spec, spec)
	return work, CompileConfig{Name: "bench", Spec: spec, InitUVAGlobals: true}
}

// benchFirstCompile measures the cold path: link, load and freeze the
// image, pre-decode every function. This is what the first session to bind
// a module pays.
func benchFirstCompile(b *testing.B, work *ir.Module, cfg CompileConfig) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(work, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCachedBind measures the steady-state path every later session pays:
// a cache hit plus a copy-on-write instance over the shared image.
func benchCachedBind(b *testing.B, work *ir.Module, cfg CompileConfig, cache *CompilationCache) {
	if _, err := Compile(work, cfg, cache); err != nil {
		b.Fatal(err)
	}
	var sink *Machine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := Compile(work, cfg, cache)
		if err != nil {
			b.Fatal(err)
		}
		sink = prog.NewInstance()
	}
	_ = sink
}

// BenchmarkBind compares the two halves of the compile-once /
// instantiate-many split on the 256 KiB-image session binary.
func BenchmarkBind(b *testing.B) {
	work, cfg := bindBenchLowered(b)
	b.Run("first-compile", func(b *testing.B) { benchFirstCompile(b, work, cfg) })
	b.Run("cached", func(b *testing.B) { benchCachedBind(b, work, cfg, NewCompilationCache()) })
}

// TestBindBenchJSON writes BENCH_bind.json, the machine-readable record of
// the shared-image acceptance criteria: a cached bind must be at least 50x
// faster than the first compile, and a session's resident bytes under
// copy-on-write binding at least 10x below a private image copy. Skipped
// unless BENCH_BIND_JSON names the output path (run via make bench).
func TestBindBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_BIND_JSON")
	if path == "" {
		t.Skip("BENCH_BIND_JSON not set; run via make bench")
	}
	work, cfg := bindBenchLowered(t)

	first := testing.Benchmark(func(b *testing.B) { benchFirstCompile(b, work, cfg) })
	cache := NewCompilationCache()
	cached := testing.Benchmark(func(b *testing.B) { benchCachedBind(b, work, cfg, cache) })
	firstNs := float64(first.T.Nanoseconds()) / float64(first.N)
	cachedNs := float64(cached.T.Nanoseconds()) / float64(cached.N)
	speedup := 0.0
	if cachedNs > 0 {
		speedup = firstNs / cachedNs
	}

	// Resident bytes per session, measured after one kernel run so both
	// sides have paid their working set (stack, scratch writes).
	prog, err := Compile(work, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance()
	if _, err := inst.CallFunc(work.Func("kern")); err != nil {
		t.Fatal(err)
	}
	plain := plainMachine(t, work, cfg)
	if _, err := plain.CallFunc(work.Func("kern")); err != nil {
		t.Fatal(err)
	}
	sharedRes := inst.Mem.ResidentPrivateBytes()
	plainRes := plain.Mem.ResidentPrivateBytes()
	savings := 0.0
	if sharedRes > 0 {
		savings = float64(plainRes) / float64(sharedRes)
	}
	stats := cache.Stats()

	// Fleet capacity projection: what the shared image buys a 1000-session
	// server pool versus private-copy binding.
	plan := fleet.PlanFromImage(prog.Image(), sharedRes)
	doc := struct {
		FirstCompileNs    float64 `json:"first_compile_ns"`
		CachedBindNs      float64 `json:"cached_bind_ns"`
		BindSpeedup       float64 `json:"bind_speedup_x"`
		ImageBytes        int     `json:"image_bytes"`
		ImageUniqueBytes  int     `json:"image_unique_bytes"`
		PlainResidentB    int     `json:"private_resident_bytes_per_session"`
		SharedResidentB   int     `json:"shared_resident_bytes_per_session"`
		ResidentSavings   float64 `json:"resident_savings_x"`
		CacheHits         int64   `json:"cache_hits"`
		CacheMisses       int64   `json:"cache_misses"`
		CacheHitRate      float64 `json:"cache_hit_rate"`
		FleetShared1000B  int     `json:"fleet_shared_bytes_at_1000"`
		FleetPrivate1000B int     `json:"fleet_private_bytes_at_1000"`
		FleetSavings1000  float64 `json:"fleet_savings_at_1000_x"`
	}{
		FirstCompileNs:    firstNs,
		CachedBindNs:      cachedNs,
		BindSpeedup:       speedup,
		ImageBytes:        prog.Image().Bytes(),
		ImageUniqueBytes:  prog.Image().UniqueBytes(),
		PlainResidentB:    plainRes,
		SharedResidentB:   sharedRes,
		ResidentSavings:   savings,
		CacheHits:         stats.Hits,
		CacheMisses:       stats.Misses,
		CacheHitRate:      stats.HitRate(),
		FleetShared1000B:  plan.SharedBytesAt(1000),
		FleetPrivate1000B: plan.PrivateBytesAt(1000),
		FleetSavings1000:  plan.Savings(1000),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (bind speedup %.0fx, resident savings %.1fx, image %d KiB)",
		path, speedup, savings, prog.Image().Bytes()/1024)

	if speedup < 50 {
		t.Errorf("cached bind %.0f ns vs first compile %.0f ns: %.1fx, want >= 50x", cachedNs, firstNs, speedup)
	}
	if savings < 10 {
		t.Errorf("resident bytes/session: shared %d vs private %d: %.1fx, want >= 10x", sharedRes, plainRes, savings)
	}
	if instPages, plainPages := len(inst.Mem.PresentPages()), len(plain.Mem.PresentPages()); instPages != plainPages {
		t.Errorf("present pages diverged: shared %d, private %d", instPages, plainPages)
	}
	if d1, d2 := inst.Mem.Digest(mem.StackRanges()...), plain.Mem.Digest(mem.StackRanges()...); d1 != d2 {
		t.Errorf("post-run digest diverged: shared %#x, private %#x", d1, d2)
	}
}
