package fleet

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// BenchmarkFleetCell runs the repository benchmark's two fleet cells
// in-process, one fleet.Run per iteration, so decision-path work can be
// measured and profiled without the harness:
//
//	go test ./internal/fleet -run '^$' -bench FleetCell -benchtime 3x -cpuprofile cpu.prof
//
// The configurations are copies of bench/fleet.go's overloadConfig,
// tieredChaosConfig and localOnly at seed 1 (bench/ is a module of its own
// and cannot be imported); keep them in step by hand. overload/local is the
// run the harness times as the overload workload's setup_s.
func BenchmarkFleetCell(b *testing.B) {
	overload := DefaultConfig(100000, 16, EstAware)
	overload.RequestsPerClient = 10

	const edge, cloud = 128, 32
	tiered := TieredConfig(1536, tiers.Default(edge, cloud))
	tiered.RequestsPerClient = 300
	tiered.Workload.TmMin = 200 * simtime.Millisecond
	tiered.Workload.TmMax = 1 * simtime.Second
	tiered.Workload.MemMin = 64 << 10
	tiered.Workload.MemMax = 512 << 10
	tiered.Workload.DiurnalAmp = 0.6
	tiered.Workload.DiurnalPeriod = 10 * simtime.Second
	tiered.Adaptive = DefaultAdaptive()
	plan := &faults.ServerPlan{Seed: tiered.Seed}
	for k := 0; k < edge/8; k++ {
		plan.Events = append(plan.Events, faults.ServerEvent{
			Kind: faults.Drain, Server: 8 * k, Start: simtime.PS(5+k) * simtime.Second})
	}
	plan.Events = append(plan.Events,
		faults.ServerEvent{Kind: faults.Crash, Server: edge, Start: 7 * simtime.Second},
		faults.ServerEvent{Kind: faults.Slowdown, Server: 1, Factor: 3,
			Start: 3 * simtime.Second, End: 20 * simtime.Second})
	tiered.ServerFaults = plan

	local := overload
	local.Servers = []ServerSpec{{R: 0.01, Slots: 1}}

	shards := min(runtime.GOMAXPROCS(0), 4) // the harness's shardCount
	for _, cell := range []struct {
		name   string
		cfg    Config
		shards int
	}{
		{"overload/seq", overload, 0}, {"overload/sharded", overload, shards}, {"overload/local", local, 0},
		{"tiered/seq", tiered, 0}, {"tiered/sharded", tiered, shards},
	} {
		b.Run(cell.name, func(b *testing.B) {
			cfg := cell.cfg
			cfg.Shards = cell.shards
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events = res.Events
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// BenchmarkReadyQueue is the hold model of the engines' client lane: a
// queue kept at a fixed number of pending ready events, each hold one pop
// and one push of that client a think-time later. An iteration turns the
// whole queue over once (as many holds as are pending), so a fixed
// -benchtime 3x still measures millions of them.
func BenchmarkReadyQueue(b *testing.B) {
	for _, pending := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprint(pending), func(b *testing.B) {
			r := entityStream(1, 0)
			think := func() simtime.PS { return r.rangePS(500*simtime.Millisecond, 2*simtime.Second) }
			q := newReadyQueue(pending)
			for lane := 0; lane < pending; lane++ {
				q.push(think(), int32(lane))
			}
			b.ResetTimer()
			for i := 0; i < b.N*pending; i++ {
				ev := q.pop()
				q.push(ev.t+think(), ev.lane)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pending), "ns/hold")
		})
	}
}

// BenchmarkSortLatencies sorts a million latencies between 0 and 5 s, the
// overload cell's population size, with the library sort and with
// sortLatencies.
func BenchmarkSortLatencies(b *testing.B) {
	r := entityStream(1, 1)
	pop := make([]simtime.PS, 1_000_000)
	for i := range pop {
		pop[i] = r.rangePS(0, 5*simtime.Second)
	}
	work := make([]simtime.PS, len(pop))
	for _, s := range []struct {
		name string
		sort func([]simtime.PS)
	}{{"slices.Sort", slices.Sort[[]simtime.PS]}, {"sortLatencies", sortLatencies}} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work, pop)
				b.StartTimer()
				s.sort(work)
			}
		})
	}
}
