package fleet

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// None of these tests is parallel: each reads or empties the package's one
// spare list, and the allocation budget reads the process's MemStats.

// drainSpares empties the spare list, so the next run starts from fresh
// arrays.
func drainSpares() {
	for spares.Len() > 0 {
		spares.Get()
	}
}

// freshJSON is cfg's Result as a run on fresh arrays marshals it.
func freshJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	drainSpares()
	return marshalResult(t, cfg)
}

// shapeCells are fleet cells of different shapes, in the order a process
// might run them: tiered, flat, a larger flat one, a smaller one, and the
// tiered cell again, so every array is reused, grown and shrunk.
func shapeCells() []Config {
	tiered := tieredBenchConfig(24, tiers.ThreeWay)
	tiered.ServerFaults = &faults.ServerPlan{Events: []faults.ServerEvent{
		{Kind: faults.Drain, Server: 1, Start: 2 * simtime.Second},
		{Kind: faults.Crash, Server: 4, Start: 3 * simtime.Second},
	}}
	flat := DefaultConfig(200, 8, EstAware)
	larger := DefaultConfig(3000, 16, LeastLoaded)
	larger.RequestsPerClient = 4
	smaller := DefaultConfig(20, 2, RoundRobin)
	return []Config{tiered, flat, larger, smaller, tiered}
}

// TestWarmRunAllocBudget: a second run of one cell takes the first run's
// arrays from the spare list, so it allocates a small fixed amount whatever
// the cell's size, where the first run allocated its population and client
// records.
func TestWarmRunAllocBudget(t *testing.T) {
	const budget = 16 << 10 // bytes a warm run may allocate
	cfg := DefaultConfig(2000, 8, EstAware)
	cfg.RequestsPerClient = 20
	measure := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	drainSpares()
	cold := measure()
	warm := measure()
	t.Logf("cold run %d B, warm run %d B", cold, warm)
	if arrays := uint64(cfg.Clients * cfg.RequestsPerClient * int(unsafe.Sizeof(simtime.PS(0)))); cold < arrays {
		t.Fatalf("the cold run allocated %d B, less than its latency population (%d B): the cell measures nothing", cold, arrays)
	}
	if warm > budget {
		t.Errorf("the warm run allocated %d B, budget %d", warm, budget)
	}
}

// TestInterleavedShapesMatchFreshRuns: runs of different shapes one after
// another, each on whatever arrays the one before left, marshal to exactly
// the bytes of the same cells run on fresh arrays, and a Result keeps its
// bytes however many runs follow it.
func TestInterleavedShapesMatchFreshRuns(t *testing.T) {
	cells := shapeCells()
	fresh := make([][]byte, len(cells))
	for i, cfg := range cells {
		fresh[i] = freshJSON(t, cfg)
	}
	drainSpares()
	results := make([]*Result, len(cells))
	for i, cfg := range cells {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
		if got, _ := json.Marshal(res); !bytes.Equal(got, fresh[i]) {
			t.Errorf("cell %d on recycled arrays:\n%s\nfresh:\n%s", i, got, fresh[i])
		}
	}
	for i, res := range results {
		if got, _ := json.Marshal(res); !bytes.Equal(got, fresh[i]) {
			t.Errorf("cell %d's Result changed under the runs after it:\n%s\nwas:\n%s", i, got, fresh[i])
		}
	}
}

// TestConcurrentRunsMatchSequential: four goroutines running cells at once
// share the spare list, and each run still marshals to its sequential
// bytes. Under -race this is the check that no two runs share a set.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	cells := shapeCells()[:4]
	want := make([][]byte, len(cells))
	for i, cfg := range cells {
		want[i] = freshJSON(t, cfg)
	}
	const rounds = 3
	var wg sync.WaitGroup
	for g := range cells {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(cells)
				res, err := Run(cells[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got, _ := json.Marshal(res); !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d, round %d: cell %d diverged from its sequential run", g, r, i)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := spares.Len(); n > spareSets {
		t.Errorf("the spare list holds %d sets, bound %d", n, spareSets)
	}
}

// TestOverBoundRunNotRetained: a run whose arrays exceed spareSetBytes
// leaves nothing on the spare list, where a small run leaves its set.
func TestOverBoundRunNotRetained(t *testing.T) {
	small := DefaultConfig(20, 2, RoundRobin)
	drainSpares()
	if _, err := Run(small); err != nil {
		t.Fatal(err)
	}
	if n := spares.Len(); n != 1 {
		t.Fatalf("a small run left %d sets on the spare list, want its own", n)
	}

	// 750k clients of one request each, every one declined by a server too
	// slow to be worth the trip: the client records alone are past the
	// bound.
	big := DefaultConfig(750_000, 1, EstAware)
	big.RequestsPerClient = 1
	big.Servers = []ServerSpec{{R: 0.01, Slots: 1}}
	if b := big.Clients * int(unsafe.Sizeof(clientState{})); b <= spareSetBytes {
		t.Fatalf("the big cell's client records are %d B, not past the %d B bound", b, spareSetBytes)
	}
	drainSpares()
	misses := spares.Misses()
	res, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if res.Declines != res.Requests {
		t.Fatalf("the big cell offloaded: %d of %d requests declined", res.Declines, res.Requests)
	}
	if n := spares.Len(); n != 0 {
		t.Errorf("a run over the bound left %d sets on the spare list", n)
	}
	if m := spares.Misses() - misses; m != 1 {
		t.Errorf("the run took %d fresh sets, want 1", m)
	}
}
