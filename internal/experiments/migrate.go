package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/report"
	"repro/internal/simtime"
)

// ServerDeathSweep is the server-death chaos campaign: across `seeds`
// deterministic scenarios, the serving host dies mid-offload — at a
// different fraction of the fault-free timeline each seed — and the run
// is repeated in three recovery modes: crash with a spare (re-send and
// retry), crash without one (local fallback), and scheduled drain with a
// spare (checkpoint migration when Equation 1 favors it). Every cell must
// be bit-identical to the fault-free run; which recovery fired is the
// cell's mode, not its verdict.
func ServerDeathSweep(seeds int) ([]*ChaosCell, error) {
	base, err := Sweep()
	if err != nil {
		return nil, err
	}
	var cells []*ChaosCell
	for i := 0; i < seeds; i++ {
		pr := base[i%len(base)]
		// Kill at a seed-dependent point inside the fault-free timeline so
		// the sweep covers early, mid and late deaths.
		at := pr.Fast.Time * simtime.PS(i+1) / simtime.PS(seeds+2)
		crash := &faults.ServerPlan{Seed: uint64(i), Events: []faults.ServerEvent{
			{Kind: faults.Crash, Server: 0, Start: at}}}
		drain := &faults.ServerPlan{Seed: uint64(i), Events: []faults.ServerEvent{
			{Kind: faults.Drain, Server: 0, Start: at}}}

		for _, m := range []struct {
			mode string
			plan *faults.ServerPlan
			mig  bool
		}{
			{"retry", crash, true},
			{"fallback", crash, false},
			{"migrate", drain, true},
		} {
			cell, err := RunChaosCell(pr, m.mode+": "+m.plan.String(), func(fw *core.Framework) {
				fw.ServerFaults, fw.Migrate = m.plan, m.mig
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// ServerChaosSpecSweep runs every workload of the main sweep under one
// user-supplied server-fault plan (the -server-faults flag), migration
// enabled, and returns the per-workload cells.
func ServerChaosSpecSweep(plan *faults.ServerPlan) ([]*ChaosCell, error) {
	base, err := Sweep()
	if err != nil {
		return nil, err
	}
	var cells []*ChaosCell
	for _, pr := range base {
		cell, err := RunChaosCell(pr, "spec: "+plan.String(), func(fw *core.Framework) {
			fw.ServerFaults, fw.Migrate = plan, true
		})
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// MigrateBenchCell is one seed of the fleet-level migration benchmark:
// the same 64-client run fault-free, with a mid-run server crash under
// migration-enabled recovery, and with the same crash under fallback-only
// recovery.
type MigrateBenchCell struct {
	Seed uint64 `json:"seed"`

	CleanP99Ms    float64 `json:"clean_p99_ms"`
	CleanGeoMs    float64 `json:"clean_geomean_ms"`
	MigrateP99Ms  float64 `json:"migrate_p99_ms"`
	MigrateGeoMs  float64 `json:"migrate_geomean_ms"`
	FallbackP99Ms float64 `json:"fallback_p99_ms"`
	FallbackGeoMs float64 `json:"fallback_geomean_ms"`

	Migrations int `json:"migrations"`
	Retried    int `json:"retried"`
	Fallbacks  int `json:"fallbacks"`
}

// MigrateBench is the committed BENCH_migrate.json record: the per-seed
// cells plus the aggregate p99 (mean over seeds) and geomean (geometric
// mean over seeds) each floor check runs against.
type MigrateBench struct {
	Clients     int     `json:"clients"`
	Servers     int     `json:"servers"`
	Seeds       int     `json:"seeds"`
	CrashServer int     `json:"crash_server"`
	CrashAtMs   float64 `json:"crash_at_ms"`

	Cells []*MigrateBenchCell `json:"cells"`

	MigrateP99Ms  float64 `json:"migrate_p99_ms"`
	MigrateGeoMs  float64 `json:"migrate_geomean_ms"`
	FallbackP99Ms float64 `json:"fallback_p99_ms"`
	FallbackGeoMs float64 `json:"fallback_geomean_ms"`
}

// migrateCrashAt is when the benchmark kills its server: far enough into
// a 64-client run that slots and queues are loaded.
const migrateCrashAt = 5 * simtime.Second

// Benchmark clients are interactive (one request every 1-4 s of think
// time) rather than back-to-back. This matters for what the benchmark
// measures: at full saturation every surviving slot is contended, so
// rerouting crash victims onto survivors displaces exactly as much queued
// work as it saves and recovery policy cannot change the aggregate. With
// interactive load the pool has the headroom real recovery targets have,
// and the sweep isolates the detection + rerouting win instead of a
// capacity identity.
const (
	migrateThinkMin = 1 * simtime.Second
	migrateThinkMax = 4 * simtime.Second
)

// MigrateSweep runs the migration benchmark: `seeds` independent
// 64-client/4-server est-aware runs, each repeated clean, crashed with
// migration, and crashed with fallback-only recovery.
func MigrateSweep(seeds, clients, servers int) (*MigrateBench, error) {
	bench := &MigrateBench{
		Clients: clients, Servers: servers, Seeds: seeds,
		CrashServer: 0, CrashAtMs: migrateCrashAt.Millis(),
	}
	run := func(seed uint64, faulted, migrate bool) (*fleet.Result, error) {
		cfg := fleet.DefaultConfig(clients, servers, fleet.EstAware)
		cfg.Seed = seed
		cfg.Workload.ThinkMin = migrateThinkMin
		cfg.Workload.ThinkMax = migrateThinkMax
		if faulted {
			cfg.ServerFaults = &faults.ServerPlan{Seed: seed, Events: []faults.ServerEvent{
				{Kind: faults.Crash, Server: bench.CrashServer, Start: migrateCrashAt}}}
			cfg.Migrate = migrate
		}
		return fleet.Run(cfg)
	}
	var sumMigP99, sumFbP99 float64
	var migGeos, fbGeos []float64
	for i := 0; i < seeds; i++ {
		seed := uint64(i + 1)
		clean, err := run(seed, false, false)
		if err != nil {
			return nil, fmt.Errorf("migrate bench seed %d clean: %w", seed, err)
		}
		mig, err := run(seed, true, true)
		if err != nil {
			return nil, fmt.Errorf("migrate bench seed %d migrate: %w", seed, err)
		}
		fb, err := run(seed, true, false)
		if err != nil {
			return nil, fmt.Errorf("migrate bench seed %d fallback: %w", seed, err)
		}
		bench.Cells = append(bench.Cells, &MigrateBenchCell{
			Seed:       seed,
			CleanP99Ms: clean.P99Ms, CleanGeoMs: clean.GeomeanMs,
			MigrateP99Ms: mig.P99Ms, MigrateGeoMs: mig.GeomeanMs,
			FallbackP99Ms: fb.P99Ms, FallbackGeoMs: fb.GeomeanMs,
			Migrations: mig.Migrations, Retried: mig.Retried, Fallbacks: fb.Fallbacks,
		})
		sumMigP99 += mig.P99Ms
		sumFbP99 += fb.P99Ms
		migGeos = append(migGeos, mig.GeomeanMs)
		fbGeos = append(fbGeos, fb.GeomeanMs)
	}
	n := float64(seeds)
	bench.MigrateP99Ms = sumMigP99 / n
	bench.FallbackP99Ms = sumFbP99 / n
	bench.MigrateGeoMs = report.Geomean(migGeos)
	bench.FallbackGeoMs = report.Geomean(fbGeos)
	return bench, nil
}

// CheckFloor enforces the benchmark's acceptance bar: migration-enabled
// recovery must beat fallback-only on both aggregate p99 and geomean, and
// the crash must actually have caught in-flight work (a vacuous sweep
// proves nothing).
func (b *MigrateBench) CheckFloor() error {
	if b.MigrateP99Ms >= b.FallbackP99Ms {
		return fmt.Errorf("migrate bench: p99 floor broken: migrate %.2f ms >= fallback %.2f ms",
			b.MigrateP99Ms, b.FallbackP99Ms)
	}
	if b.MigrateGeoMs >= b.FallbackGeoMs {
		return fmt.Errorf("migrate bench: geomean floor broken: migrate %.2f ms >= fallback %.2f ms",
			b.MigrateGeoMs, b.FallbackGeoMs)
	}
	recovered := 0
	for _, c := range b.Cells {
		recovered += c.Retried + c.Migrations
	}
	if recovered == 0 {
		return fmt.Errorf("migrate bench: no seed recovered any in-flight work; the crash schedule is vacuous")
	}
	return nil
}

// Table renders the benchmark for the CLI.
func (b *MigrateBench) Table() *report.Table {
	t := report.New(fmt.Sprintf("Migration bench: %d clients / %d servers, server %d killed at %.0f ms",
		b.Clients, b.Servers, b.CrashServer, b.CrashAtMs),
		"seed", "clean p99", "migrate p99", "fallback p99",
		"clean geo", "migrate geo", "fallback geo", "retried", "fallbacks")
	for _, c := range b.Cells {
		t.Add(c.Seed, c.CleanP99Ms, c.MigrateP99Ms, c.FallbackP99Ms,
			c.CleanGeoMs, c.MigrateGeoMs, c.FallbackGeoMs, c.Retried, c.Fallbacks)
	}
	t.Note("aggregate: migrate p99 %.2f ms vs fallback %.2f ms, migrate geomean %.2f ms vs fallback %.2f ms",
		b.MigrateP99Ms, b.FallbackP99Ms, b.MigrateGeoMs, b.FallbackGeoMs)
	return t
}
