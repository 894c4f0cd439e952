GO ?= go

.PHONY: check build vet benchvet benchtest fmt test smoke bench fleetbench guestbench golden fuzz chaos

## check: the tier-1 verification — build, vet (the root module and the
## nested benchmark module), the benchmark module's own tests, gofmt
## cleanliness, every test under the race detector (the Test*Smoke contract
## tests included: each states its contract in its own doc comment; the
## committed BENCH_{fleet,migrate,tiers,fleet_scale}.json records and
## `offloadbench -exp all`'s stdout are byte-compared there too; the root
## package's TestExportedFuncsHaveShippedCallers fails on an exported
## internal/ function that only tests call, TestDesignNamesExist on a
## name in DESIGN.md or README.md that does not exist, and
## TestNoFusedArithmetic on a fused multiply-add in the module's code
## cross-compiled for arm64, a few seconds once cached; every fuzz target's
## seed corpus runs as a test), and a short fuzz smoke, 5 s each, over the
## hardened wire decoder and the migration checkpoint's decoder, which reads
## through the same cursor (its minimization capped at 200 runs an input, as
## in `make fuzz`): about 12 s with their builds, inside ROADMAP item 4's 20 s
## budget.
check: build vet benchvet benchtest fmt
	$(GO) test -race ./...
	$(GO) test ./internal/offrt/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s
	$(GO) test ./internal/offrt/ -run '^$$' -fuzz '^FuzzCheckpoint$$' -fuzztime 5s -fuzzminimizetime 200x

## smoke: the quick loop — only the Test*Smoke contract tests (O(1) bind,
## the fleet engine against its single-heap oracle at 10k clients,
## mid-offload migration, multi-tier placement, span tracing), without the
## race detector.
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

## bench: the host-timed records — the interpreter/memory micro-benchmarks
## (fast vs reference engine, with steps/sec and allocations) plus the
## observability hot-path allocation benchmarks. Writes BENCH_interp.json
## (fails if the fast engine regresses below the 5x steps/sec floor or
## allocates in steady state) and BENCH_bind.json (fails if a cached bind is
## under 50x faster than the first compile or a session's copy-on-write
## resident bytes are under 10x below a private image copy). The simulated
## records (BENCH_fleet, _migrate, _tiers, _fleet_scale) are not written
## here: they are goldens of TestCommittedRecords, see `make golden`.
bench:
	$(GO) test -run '^$$' -bench 'InterpLoop|LoadStore|CallReturn|Digest|Bind' -benchmem ./internal/interp/
	$(GO) test -run '^$$' -bench 'PageFaultTrace' -benchmem ./internal/obs/
	BENCH_JSON=$(CURDIR)/BENCH_interp.json $(GO) test ./internal/interp/ -run '^TestBenchJSON$$' -count=1 -v
	BENCH_BIND_JSON=$(CURDIR)/BENCH_bind.json $(GO) test ./internal/interp/ -run '^TestBindBenchJSON$$' -count=1 -v

## fleetbench: the fleet engine in process, host-timed, nothing written —
## the benchmark's two fleet cells (plus the overload cell's local-only
## set-up run) and a million clients of two requests each (`million/seq`,
## the fleetscale regime, where the per-client layout weighs most), one
## est-aware pick through the load index against the walk it replaced, the
## ready queue's hold model (rows `calendar`, the queue the engine runs over
## bare client records, and `heap`, the 4-ary heap it replaced) and the
## latency sort against slices.Sort. Three iterations
## each: compare two commits by alternating their test binaries, not from
## one run. A fleet cell runs once untimed before its iterations, so its B/op
## (and warm-B/run) is the recycled steady state — the run memory comes from
## the spare list — except million/seq, whose arrays are over the spare
## list's size bound and not retained: its B/op is the whole cost.
fleetbench:
	$(GO) test -run '^$$' -bench 'FleetCell|Pick|ReadyQueue|SortLatencies' -benchtime 3x -benchmem ./internal/fleet/

## guestbench: the guest hot path in process, host-timed, one thread,
## nothing written — the three engine kernels (fast vs reference), the
## semantic-memory digest, and the 17 Table 4 programs on their profiling
## inputs plain vs profiled (the profiler's overhead is the ratio of those two
## rows). Compare two commits by alternating their test binaries and taking
## minima, not from one run.
guestbench:
	$(GO) test -run '^$$' -bench 'InterpLoop|LoadStore|CallReturn|Digest' -benchtime 0.3s -cpu 1 ./internal/interp/
	$(GO) test -run '^$$' -bench 'ProfileRun' -benchtime 5x -cpu 1 ./internal/profile/

## golden: regenerate every golden file (Chrome export, breakdown tables,
## `offloadrun -metrics`'s stdout, the stdout of `offloadc` and of the five
## examples, the profile reports of chess and the 17
## workloads, the four simulated BENCH_*.json records at the repo root,
## `offloadbench -exp all`'s stdout, the guest sampler's folded profiles of
## the call kernel and offloaded chess) through the shared goldentest
## -update flag. A record whose floor fails is not rewritten.
golden:
	$(GO) test ./internal/obs/ ./internal/obs/analyze/ -update
	$(GO) test ./cmd/offloadrun/ -run '^TestMetricsGolden$$' -update
	$(GO) test ./cmd/offloadc/ ./examples/... -run '^TestStdoutGolden$$' -update
	$(GO) test ./internal/interp/ -run '^TestSamplerGoldenCallKernel$$' -update
	$(GO) test ./internal/experiments/ -run '^(TestProfileReportsGolden|TestCommittedRecords|TestPaperArtifactsGolden|TestSamplerChessGolden)$$' -update

## fuzz: a longer fuzzing session over every fuzz target in the module,
## one minute each: the wire decoder, the migration checkpoint's round
## trip, the session protocol under arbitrary link and server fault plans
## (FuzzSessionFaults), the IR parser, the two fault-plan spec parsers and
## the trace analyzers over arbitrary event streams (go test fuzzes one
## target per run). A checkpoint input carries whole pages, and minimizing
## each new one at the default budget stalls the workers for most of the
## minute, so that target minimizes for 200 runs an input.
fuzz:
	$(GO) test ./internal/offrt/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 60s
	$(GO) test ./internal/offrt/ -run '^$$' -fuzz '^FuzzCheckpoint$$' -fuzztime 60s -fuzzminimizetime 200x
	$(GO) test ./internal/offrt/ -run '^$$' -fuzz '^FuzzSessionFaults$$' -fuzztime 60s
	$(GO) test ./internal/obs/analyze/ -run '^$$' -fuzz '^FuzzAnalyze$$' -fuzztime 60s
	$(GO) test ./internal/ir/ -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 60s
	$(GO) test ./internal/faults/ -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 60s
	$(GO) test ./internal/faults/ -run '^$$' -fuzz '^FuzzParseServer$$' -fuzztime 60s

## chaos: the fault-injection campaign — every workload under the
## drop-rate x outage grid, asserting bit-identical output vs fault-free.
chaos:
	$(GO) test ./internal/experiments/ -run '^TestChaos' -v
