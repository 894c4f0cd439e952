// Package fleet is the server-fleet scheduler: a deterministic simulated
// offload-serving subsystem that runs N concurrent mobile clients against
// a pool of M servers on the shared simtime clock.
//
// The paper's runtime serves one mobile client from one dedicated x86
// server. This package generalizes that shape toward the production-scale
// system the ROADMAP names: every client keeps the paper's dynamic
// Equation-1 gate, but the break-even point now includes the *queueing
// delay* a shared server charges (estimate.Cheapest via PlacementMargin,
// over a single tier exactly the session's gate on the margin-scaled
// queue), so a busy fleet flips marginal tasks back to local execution. On
// top sit a pluggable load-balancing dispatcher (random, round-robin,
// least-loaded, est-aware) and admission control that sheds requests past a
// queue-depth or wait bound down the existing local-fallback path.
//
// Everything is seeded-deterministic: the same Config (including Seed)
// produces byte-identical schedules and statistics, so policy comparisons
// and tests are exact.
package fleet

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// ServerSpec is one server's capacity: its server/mobile performance
// ratio (the cost scale of Equation 1's R) and how many offloaded tasks
// it executes concurrently.
type ServerSpec struct {
	// R is the server/mobile performance ratio; an offloaded task with
	// mobile execution time Tm runs in Tm/R here.
	R float64
	// Slots is the number of concurrent execution slots; requests beyond
	// it wait in the run queue.
	Slots int
}

// Admission bounds what a server accepts. A request failing either bound
// at arrival is shed: the client is notified and re-executes locally,
// exactly the runtime's local-fallback path.
type Admission struct {
	// MaxQueue sheds a request arriving at a server whose run queue
	// already holds this many waiting requests (0 = unbounded).
	MaxQueue int
	// MaxWait sheds a request whose estimated queueing delay at arrival
	// exceeds this bound (0 = unbounded): a deadline the fleet refuses to
	// knowingly miss.
	MaxWait simtime.PS
}

// WorkloadModel is the synthetic per-client request population: each
// request draws a mobile execution time Tm and a memory footprint M (the
// two inputs of Equation 1), and clients pause for a think time between
// requests. All draws are uniform over the given ranges from the client's
// seeded stream.
type WorkloadModel struct {
	TmMin, TmMax       simtime.PS
	MemMin, MemMax     int64
	ThinkMin, ThinkMax simtime.PS

	// DiurnalAmp/DiurnalPeriod overlay a sinusoidal load curve on the
	// think times: the draw is divided by 1 + Amp*sin(2πt/Period), so
	// traffic swings between (1-Amp)x and (1+Amp)x the baseline over each
	// period — the daily tide the adaptive admission controller is tuned
	// against. Amp 0 (the zero value) keeps the flat workload; Amp must
	// stay below 1, and far enough below it that the stretched think
	// ThinkMax/(1-Amp) stays within the clock (Validate).
	DiurnalAmp    float64
	DiurnalPeriod simtime.PS
}

// Config describes one fleet run.
type Config struct {
	// Seed drives every random stream (per-client workload draws, initial
	// think offsets, the random policy). Same seed, same everything.
	Seed uint64
	// Clients is the number of concurrent mobile clients.
	Clients int
	// RequestsPerClient is how many offload candidates each client issues.
	RequestsPerClient int
	// Servers is the pool; heterogeneous specs are fine.
	Servers []ServerSpec
	// Policy is the dispatcher's load-balancing policy.
	Policy Policy
	// Admission bounds what servers accept.
	Admission Admission
	// Adaptive, when enabled, turns the Admission bounds into the
	// starting point of a per-period feedback controller (see Adaptive).
	Adaptive Adaptive
	// Workload is the synthetic request population.
	Workload WorkloadModel
	// Shards is ignored: nothing reads it. It selected the sharded engine,
	// which is gone, and stays only because the repository benchmark's
	// fleet workloads (bench/fleet.go) still write it; it goes with that
	// writer when ROADMAP item 3 revises the benchmark.
	Shards int
	// LinkProfiles names the netsim presets cycled across clients: client
	// i uses profile i mod len, and clients on one profile share a single
	// immutable Link. Empty defaults to {"fast", "slow", "lte"}.
	LinkProfiles []string

	// ServerFaults schedules deterministic server faults against pool
	// members by index: crashes and drains take servers out of rotation
	// mid-run, slowdowns and stalls stretch the service times of jobs
	// started inside their windows. Every event must name a server of the
	// pool (Validate). Nil leaves the pool perfectly healthy.
	ServerFaults *faults.ServerPlan
	// Tiers, when set, arranges the pool as a hierarchical edge/cloud
	// topology: Servers must equal TieredServers(Tiers) (edge indices
	// first), dispatch becomes the est-aware 3-way placement gate
	// (estimate.Cheapest) and, with Migrate on, saturated-edge arrivals
	// demote to the cloud over the topology's WAN backhaul. Nil is the flat fleet:
	// the same gate over one tier with no cloud option, where it is
	// exactly the paper's binary gate, open to every policy.
	Tiers *tiers.Topology

	// Migrate enables mid-flight recovery of the work a failed server was
	// holding: running jobs on a draining server checkpoint-and-migrate to
	// the best-placed survivor over the backhaul, jobs lost to a crash are
	// re-sent there by their clients, queued jobs forward. Off, every
	// victim degrades to the client-local fallback path.
	Migrate bool

	// Exemplars, when positive, turns on the tail sampler: every job emits
	// a cheap KJob summary, and complete span trees are retained for the
	// slowest-K jobs, the K worst of each anomaly class (shed / migrated /
	// faulted) and a K-sized seeded baseline, flushed into the Tracer ring
	// at end of run. Zero (the default) records nothing extra. Retention
	// is deterministic: it follows the (t, lane, seq) event order.
	Exemplars int

	// Tracer receives fleet.dispatch / fleet.queue / fleet.shed events
	// (plus per-request gate decisions). It may be nil.
	Tracer *obs.Tracer
}

// DefaultServers builds a heterogeneous pool of n servers: fast machines
// (R=6, the paper's ~5.8 rounded up) alternating with half-speed ones
// (R=3), two slots each — the shape that makes est-aware routing matter.
func DefaultServers(n int) []ServerSpec {
	specs := make([]ServerSpec, n)
	for i := range specs {
		r := 6.0
		if i%2 == 1 {
			r = 3.0
		}
		specs[i] = ServerSpec{R: r, Slots: 2}
	}
	return specs
}

// TieredServers materializes a topology's pools as the fleet server
// slice: edge servers occupy the low indices [0, Edge.Servers), cloud
// servers follow — the index layout Topology.TierOf assumes.
func TieredServers(topo *tiers.Topology) []ServerSpec {
	specs := make([]ServerSpec, 0, topo.Total())
	for i := 0; i < topo.Edge.Servers; i++ {
		specs = append(specs, ServerSpec{R: topo.Edge.R, Slots: topo.Edge.Slots})
	}
	for i := 0; i < topo.Cloud.Servers; i++ {
		specs = append(specs, ServerSpec{R: topo.Cloud.R, Slots: topo.Cloud.Slots})
	}
	return specs
}

// TieredConfig is DefaultConfig over a hierarchical topology: every
// client reaches the edge pool over the edge-wifi access profile,
// dispatch is the 3-way placement gate (the topology's Mode selects
// 3way / edge-only / cloud-only), and cross-tier migration is enabled.
func TieredConfig(clients int, topo *tiers.Topology) Config {
	cfg := DefaultConfig(clients, 1, EstAware)
	cfg.Servers = TieredServers(topo)
	cfg.Tiers = topo
	cfg.LinkProfiles = []string{"edge-wifi"}
	cfg.Migrate = true
	return cfg
}

// DefaultConfig is the standard scaling-experiment cell: n clients over a
// DefaultServers pool of m, tasks of 0.2-2 s mobile time and 0.25-4 MB
// footprint, 50-500 ms think times, bounded admission.
func DefaultConfig(clients, servers int, pol Policy) Config {
	return Config{
		Seed:              1,
		Clients:           clients,
		RequestsPerClient: 10,
		Servers:           DefaultServers(servers),
		Policy:            pol,
		Admission:         Admission{MaxQueue: 8, MaxWait: 4 * simtime.Second},
		Workload: WorkloadModel{
			TmMin: 200 * simtime.Millisecond, TmMax: 2 * simtime.Second,
			MemMin: 256 << 10, MemMax: 4 << 20,
			ThinkMin: 50 * simtime.Millisecond, ThinkMax: 500 * simtime.Millisecond,
		},
	}
}

// Validate rejects configurations the simulation cannot run with.
func (c *Config) Validate() error {
	if c.Clients <= 0 || c.RequestsPerClient <= 0 {
		return fmt.Errorf("fleet: need at least one client and one request, got %d x %d", c.Clients, c.RequestsPerClient)
	}
	// A client counts the requests it still owes in an int32.
	if c.RequestsPerClient > math.MaxInt32 {
		return fmt.Errorf("fleet: %d requests per client exceed the int32 request counter", c.RequestsPerClient)
	}
	if len(c.Servers) == 0 {
		return fmt.Errorf("fleet: empty server pool")
	}
	// Every client and every server is an event lane with an int32 id.
	if c.Clients+len(c.Servers) > math.MaxInt32 {
		return fmt.Errorf("fleet: %d clients + %d servers exceed the %d event lanes an int32 lane id can name",
			c.Clients, len(c.Servers), math.MaxInt32)
	}
	// The latency population is presized to one entry a request (newResult).
	if n := int64(c.Clients) * int64(c.RequestsPerClient); n > maxRunRequests {
		return fmt.Errorf("fleet: %d clients x %d requests = %d requests exceed the %d a run's latency population holds",
			c.Clients, c.RequestsPerClient, n, maxRunRequests)
	}
	for i, s := range c.Servers {
		if s.R <= 0 || s.Slots <= 0 {
			return fmt.Errorf("fleet: server %d has non-positive capacity (R=%g, slots=%d)", i, s.R, s.Slots)
		}
	}
	if _, err := ParsePolicy(string(c.Policy)); err != nil {
		return err
	}
	w := c.Workload
	if w.TmMin <= 0 || w.TmMax < w.TmMin || w.MemMin <= 0 || w.MemMax < w.MemMin ||
		w.ThinkMin < 0 || w.ThinkMax < w.ThinkMin {
		return fmt.Errorf("fleet: malformed workload model %+v", w)
	}
	if w.DiurnalAmp < 0 || w.DiurnalAmp >= 1 {
		return fmt.Errorf("fleet: diurnal amplitude %g out of [0, 1)", w.DiurnalAmp)
	}
	if w.DiurnalAmp > 0 && w.DiurnalPeriod <= 0 {
		return fmt.Errorf("fleet: diurnal workload needs a positive period, got %v", w.DiurnalPeriod)
	}
	if h := w.horizon(); h > maxHorizon {
		return fmt.Errorf("fleet: workload horizon TmMax + ThinkMax/(1-DiurnalAmp) = %.4g ps exceeds %d ps, 1/1024 of the clock's range",
			h, int64(maxHorizon))
	}
	if c.Exemplars < 0 {
		return fmt.Errorf("fleet: negative exemplar count %d (0 disables the tail sampler)", c.Exemplars)
	}
	if _, err := linkProfiles(c); err != nil {
		return err
	}
	if err := c.ServerFaults.ValidatePool(len(c.Servers)); err != nil {
		return err
	}
	if c.Tiers != nil {
		if err := c.Tiers.Validate(); err != nil {
			return err
		}
		if got := c.Tiers.Total(); got != len(c.Servers) {
			return fmt.Errorf("fleet: topology describes %d servers but the pool has %d (build the pool with TieredServers)", got, len(c.Servers))
		}
		if c.Policy != EstAware {
			return fmt.Errorf("fleet: tiered placement requires the est-aware policy, got %q", c.Policy)
		}
	}
	return nil
}

// maxRunRequests bounds Clients × RequestsPerClient, the length of the
// latency population a run allocates up front: 2^26 requests, a 512 MiB
// population and at most about 2.5 GiB with the client records beside it.
// That is twenty times the largest cell the repository runs (fleetscale's
// million clients × 3), and a config past it is an error from Validate, not
// a failed allocation in the middle of setting a run up.
const maxRunRequests = 1 << 26

// maxHorizon bounds WorkloadModel.horizon: 1/1024 of the picosecond
// clock's range, about 2.5 simulated hours. A think stretched past the
// range converts to a negative duration, which would put a ready event
// before the clock; under the bound a client runs a thousand local request
// cycles back to back before its instants come near the range.
const maxHorizon = math.MaxInt64 / 1024

// defaultLinkProfiles is the client-link cycle used when Config leaves
// LinkProfiles empty.
var defaultLinkProfiles = []string{"fast", "slow", "lte"}

// linkProfiles resolves the config's client-link cycle to netsim presets,
// one Link per name, in order.
func linkProfiles(cfg *Config) ([]*netsim.Link, error) {
	names := cfg.LinkProfiles
	if len(names) == 0 {
		names = defaultLinkProfiles
	}
	links := make([]*netsim.Link, len(names))
	for i, name := range names {
		l, err := netsim.Profile(name)
		if err != nil {
			return nil, err
		}
		links[i] = l
	}
	return links, nil
}

// rng is a splitmix64 stream: tiny, seedable, and stable across Go
// versions (math/rand's shuffling internals are not part of its
// compatibility promise, and determinism here is load-bearing).
type rng struct{ s uint64 }

// dispatcherEntity is the entity id of the dispatcher's private stream
// (the random policy's coin), disjoint from every client id.
const dispatcherEntity = ^uint64(0)

// entityStream derives entity id's private stream from the run seed by
// mixing the id through two rounds of the splitmix64 finalizer. Streams
// depend only on (seed, id) — never on draw interleaving or on how many
// other entities exist — so what other clients do cannot change a single
// one of this client's workload draws. The id is mixed, not just xor'ed in
// as a multiple of the golden-ratio increment: that would make every
// client's stream a linear offset of its neighbors' on the same splitmix64
// orbit.
func entityStream(seed, id uint64) rng {
	return rng{s: mix64(seed ^ mix64(id^0x9E3779B97F4A7C15))}
}

// mix64 is the splitmix64 output finalizer as a pure function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangePS returns a uniform draw in [lo, hi].
func (r *rng) rangePS(lo, hi simtime.PS) simtime.PS {
	if hi <= lo {
		return lo
	}
	return lo + simtime.PS(r.float()*float64(hi-lo))
}

// rangeI64 returns a uniform draw in [lo, hi].
func (r *rng) rangeI64(lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + int64(r.float()*float64(hi-lo))
}
