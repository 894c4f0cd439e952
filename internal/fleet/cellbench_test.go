package fleet

import (
	"runtime"
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
// The configurations are copies of bench/fleet.go's overloadConfig and
// tieredChaosConfig at seed 1 (bench/ is a module of its own and cannot be
// imported); keep them in step by hand.
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

	shards := min(runtime.GOMAXPROCS(0), 4) // the harness's shardCount
	for _, cell := range []struct {
		name string
		cfg  Config
	}{{"overload", overload}, {"tiered", tiered}} {
		for _, eng := range []struct {
			name   string
			shards int
		}{{"seq", 0}, {"sharded", shards}} {
			b.Run(cell.name+"/"+eng.name, func(b *testing.B) {
				cfg := cell.cfg
				cfg.Shards = eng.shards
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
}
