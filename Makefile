GO ?= go

.PHONY: check build vet benchvet benchtest fmt test smoke bench golden fuzz chaos profsmoke

## check: the tier-1 verification — build, vet (the root module and the
## nested benchmark module), the benchmark module's own tests, gofmt
## cleanliness, the profiler/breakdown CLI smoke, every test under the race
## detector (the Test*Smoke contract tests included: each states its contract
## in its own doc comment), and a short fuzz smoke over the hardened wire
## decoder.
check: build vet benchvet benchtest fmt profsmoke
	$(GO) test -race ./...
	$(GO) test ./internal/offrt/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s

## smoke: the quick loop — only the Test*Smoke contract tests (O(1) bind,
## shard invariance at 10k clients, mid-offload migration, multi-tier
## placement, span tracing), without the race detector.
smoke:
	$(GO) test -run 'Smoke$$' -count=1 ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## benchvet: bench/ is its own module (replace repro => ../), so ./... at
## the root never compiles it; build and vet it against this tree so an API
## change it consumes (offrt sessions, core results) fails here. Runs nothing.
benchvet:
	cd bench && $(GO) vet .

## benchtest: run the benchmark module's tests (every workload on shrunken
## cells, a couple of seconds, writes nothing tracked), so a change that
## breaks a workload at run time fails here and not first at the benchmark
## gate.
benchtest:
	cd bench && $(GO) test .

## fmt: every Go file must be gofmt-clean (prints the offenders and fails).
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

test:
	$(GO) test ./...

## bench: the interpreter/memory micro-benchmarks (fast vs reference
## engine, with steps/sec and allocations) plus the observability hot-path
## allocation benchmarks. Writes the machine-readable records to
## BENCH_interp.json (fails if the fast engine regresses below the 5x
## steps/sec floor or allocates in steady state) and BENCH_bind.json
## (fails if a cached bind is under 50x faster than the first compile or
## a session's copy-on-write resident bytes are under 10x below a private
## image copy). Also writes BENCH_fleet.json and BENCH_migrate.json; the
## migration bench fails unless migration-enabled recovery beats
## fallback-only on both aggregate p99 and geomean. The fleetscale bench
## drives a million clients through the sharded engine and writes
## BENCH_fleet_scale.json; it fails if the engines disagree byte for
## byte, if adaptive admission stops beating static bounds on the
## diurnal cell, (on >= 4 cores) if the parallel engine is under 4x
## the sequential events/sec, or if the 100k-client exemplar cell
## stops retaining the 64 slowest jobs as complete span trees with
## exact segment sums inside the trace-ring bound. The tiers bench sweeps the mobile -> edge
## -> cloud hierarchy through all three placement modes and writes
## BENCH_tiers.json; it fails unless 3-way placement holds both
## aggregate tails at or under each static baseline with shard parity
## and live cross-tier migration.
bench:
	$(GO) test -run '^$$' -bench 'InterpLoop|LoadStore|CallReturn|Digest|Bind' -benchmem ./internal/interp/
	$(GO) test -run '^$$' -bench 'PageFaultTrace' -benchmem ./internal/obs/
	BENCH_JSON=$(CURDIR)/BENCH_interp.json $(GO) test ./internal/interp/ -run '^TestBenchJSON$$' -count=1 -v
	BENCH_BIND_JSON=$(CURDIR)/BENCH_bind.json $(GO) test ./internal/interp/ -run '^TestBindBenchJSON$$' -count=1 -v
	$(GO) run ./cmd/offloadbench -exp fleet -out=$(CURDIR)/BENCH_fleet.json
	$(GO) run ./cmd/offloadbench -exp migrate -out=$(CURDIR)/BENCH_migrate.json
	$(GO) run ./cmd/offloadbench -exp fleetscale -clients 1000000 -shards 0 -exemplars 64 -out=$(CURDIR)/BENCH_fleet_scale.json
	$(GO) run ./cmd/offloadbench -exp tiers -out=$(CURDIR)/BENCH_tiers.json

## golden: regenerate every golden file (Chrome export, metrics summary,
## breakdown tables, the profile reports of chess and the 17 workloads)
## through the shared goldentest -update flag.
golden:
	$(GO) test ./internal/obs/ ./internal/obs/analyze/ -update
	$(GO) test ./internal/experiments/ -run '^TestProfileReportsGolden$$' -update

## profsmoke: end-to-end smoke of the trace-analysis pipeline — a chess
## run with the guest profiler and the breakdown report enabled, checking
## the folded profile is non-empty.
profsmoke:
	$(GO) run ./cmd/offloadrun -w chess -depth 8 -turns 1 \
		-profile $(CURDIR)/.profsmoke.folded -breakdown > /dev/null
	test -s $(CURDIR)/.profsmoke.folded
	rm -f $(CURDIR)/.profsmoke.folded

## fuzz: a longer fuzzing session over the wire decoder.
fuzz:
	$(GO) test ./internal/offrt/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 60s

## chaos: the fault-injection campaign — every workload under the
## drop-rate x outage grid, asserting bit-identical output vs fault-free.
chaos:
	$(GO) test ./internal/experiments/ -run '^TestChaos' -v
