package fleet

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// TestRunDeterministic: same Config (including Seed) must produce an
// identical Result — down to the JSON bytes the bench artifact is built
// from. Determinism is an acceptance criterion, not a nicety.
func TestRunDeterministic(t *testing.T) {
	for _, pol := range Policies() {
		cfg := DefaultConfig(16, 4, pol)
		cfg.Seed = 42
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two runs with the same seed diverged:\n%+v\n%+v", pol, a, b)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Fatalf("%s: JSON not byte-identical:\n%s\n%s", pol, ja, jb)
		}
	}
}

// TestAccountingInvariant: every issued request completes exactly once —
// remotely, via a gate decline, or via an admission shed.
func TestAccountingInvariant(t *testing.T) {
	for _, pol := range Policies() {
		for _, n := range []int{1, 8, 64} {
			cfg := DefaultConfig(n, 4, pol)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s n=%d: %v", pol, n, err)
			}
			if res.Requests != n*cfg.RequestsPerClient {
				t.Errorf("%s n=%d: issued %d requests, want %d", pol, n, res.Requests, n*cfg.RequestsPerClient)
			}
			if got := res.Offloads + res.Declines + res.Sheds; got != res.Requests {
				t.Errorf("%s n=%d: %d completions of %d requests", pol, n, got, res.Requests)
			}
			if res.Dispatched != res.Offloads+res.Sheds {
				t.Errorf("%s n=%d: dispatched %d != offloads %d + sheds %d",
					pol, n, res.Dispatched, res.Offloads, res.Sheds)
			}
		}
	}
}

// TestEstAwareNeverWorseThanRandom is the satellite property: on the same
// seed and workload, contention-aware dispatch must not lose to random on
// geomean end-to-end latency. Probed headroom: worst ratio 0.93 over 20
// seeds at 16/32/64 clients.
func TestEstAwareNeverWorseThanRandom(t *testing.T) {
	for _, n := range []int{16, 32, 64} {
		for seed := uint64(1); seed <= 10; seed++ {
			run := func(pol Policy) *Result {
				cfg := DefaultConfig(n, 4, pol)
				cfg.Seed = seed
				r, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", pol, n, seed, err)
				}
				return r
			}
			est, rnd := run(EstAware), run(Random)
			if est.GeomeanMs > rnd.GeomeanMs {
				t.Errorf("n=%d seed=%d: est-aware geomean %.1f ms > random %.1f ms",
					n, seed, est.GeomeanMs, rnd.GeomeanMs)
			}
		}
	}
}

// TestOverloadShedsAndTails pins the acceptance cell: at 64 clients over 4
// servers, the load-blind policies overrun the admission bounds (nonzero
// sheds) while est-aware's contention-aware gate self-throttles (declines
// instead of sheds) and wins the tail.
func TestOverloadShedsAndTails(t *testing.T) {
	run := func(pol Policy) *Result {
		res, err := Run(DefaultConfig(64, 4, pol))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		return res
	}
	est, rnd := run(EstAware), run(Random)
	if rnd.Sheds == 0 {
		t.Errorf("random under 64/4 overload shed nothing; admission control never engaged")
	}
	if rnd.MaxQueueDepth == 0 {
		t.Errorf("random under overload never queued")
	}
	if est.Sheds != 0 {
		t.Errorf("est-aware shed %d requests; its gate should decline before admission has to", est.Sheds)
	}
	if est.Declines == 0 {
		t.Errorf("est-aware under overload never declined; contention gate is dead")
	}
	if est.P99Ms >= rnd.P99Ms {
		t.Errorf("est-aware p99 %.1f ms >= random %.1f ms", est.P99Ms, rnd.P99Ms)
	}
	if est.ThroughputRPS <= rnd.ThroughputRPS {
		t.Errorf("est-aware throughput %.1f rps <= random %.1f", est.ThroughputRPS, rnd.ThroughputRPS)
	}
}

// TestTraceEmission: an overloaded run must leave dispatch, queue and shed
// events on the fleet track, in the numbers its Result reports.
func TestTraceEmission(t *testing.T) {
	tr := obs.NewTracer(1 << 16)
	cfg := DefaultConfig(64, 4, Random)
	cfg.Tracer = tr
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[obs.Kind]int{}
	for _, ev := range tr.Events() {
		if ev.Track != obs.TrackFleet {
			t.Fatalf("fleet emitted on track %v: %+v", ev.Track, ev)
		}
		counts[ev.Kind]++
	}
	if counts[obs.KDispatch] != res.Dispatched {
		t.Errorf("saw %d fleet.dispatch events, want %d", counts[obs.KDispatch], res.Dispatched)
	}
	if counts[obs.KShed] != res.Sheds {
		t.Errorf("saw %d fleet.shed events, want %d", counts[obs.KShed], res.Sheds)
	}
	if counts[obs.KShed] == 0 || counts[obs.KQueue] == 0 {
		t.Errorf("overloaded run emitted no shed/queue events: %v", counts)
	}
	if want := cfg.Clients * cfg.RequestsPerClient; res.Requests != want {
		t.Errorf("Requests = %d, want %d", res.Requests, want)
	}
	if res.Sheds == 0 || res.MaxQueueDepth == 0 {
		t.Errorf("overloaded run reports %d sheds, max queue depth %d", res.Sheds, res.MaxQueueDepth)
	}
	if res.ServerUtilPct[0] <= 0 {
		t.Errorf("server 0 utilization %.2f%%: it served nothing", res.ServerUtilPct[0])
	}
}

// TestServerUtilBounds: utilization is a percentage of slot-time.
func TestServerUtilBounds(t *testing.T) {
	res, err := Run(DefaultConfig(32, 4, LeastLoaded))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerUtilPct) != 4 {
		t.Fatalf("got %d utilization entries, want 4", len(res.ServerUtilPct))
	}
	for i, u := range res.ServerUtilPct {
		if u < 0 || u > 100 {
			t.Errorf("server %d utilization %.2f%% out of [0,100]", i, u)
		}
	}
}

// TestConfigValidation rejects the configurations Run cannot execute.
func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Clients = 0 },
		func(c *Config) { c.RequestsPerClient = 0 },
		func(c *Config) { c.Servers = nil },
		func(c *Config) { c.Servers[0].R = 0 },
		func(c *Config) { c.Servers[0].Slots = 0 },
		func(c *Config) { c.Policy = "fastest" },
		func(c *Config) { c.Workload.TmMin = 0 },
		func(c *Config) { c.Workload.MemMax = c.Workload.MemMin - 1 },
		func(c *Config) { c.LinkProfiles = []string{"carrier-pigeon"} },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(4, 2, Random)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}

	// Lane ids are int32: clients and servers together may fill them, not
	// one past. Validate alone: a run would build the whole population. At
	// the edge the lanes pass and the population bound below stops the run.
	cfg := DefaultConfig(4, 2, Random)
	cfg.Clients = math.MaxInt32 - 2
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "latency population") {
		t.Errorf("%d clients on 2 servers: got %v, want only the population bound named", cfg.Clients, err)
	}
	cfg.Clients++
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "int32 lane id") {
		t.Errorf("%d clients on 2 servers: got %v, want the int32 lane bound named", cfg.Clients, err)
	}

	// The latency population holds at most maxRunRequests entries: a config
	// that fills it validates, one more client is an error, not an
	// allocation that fails or exhausts memory.
	cfg = DefaultConfig(maxRunRequests/16, 2, Random)
	cfg.RequestsPerClient = 16
	if err := cfg.Validate(); err != nil {
		t.Errorf("%d clients x 16 requests rejected: %v", cfg.Clients, err)
	}
	cfg.Clients++
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "latency population") {
		t.Errorf("%d clients x 16 requests: got %v, want the population bound named", cfg.Clients, err)
	}

	// A server-fault event names a server of the pool: the last one, not
	// one past it.
	cfg = DefaultConfig(4, 2, Random)
	cfg.ServerFaults = &faults.ServerPlan{Events: []faults.ServerEvent{
		{Kind: faults.Drain, Server: 0, Start: simtime.Second},
		{Kind: faults.Crash, Server: 1, Start: simtime.Millisecond},
	}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("faults on servers 0 and 1 of 2 rejected: %v", err)
	}
	cfg.ServerFaults.Events[1].Server = 2
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "server event 1 (crash) names server 2, but the pool has 2") {
		t.Errorf("a crash on server 2 of 2: got %v, want the event, the server and the pool size named", err)
	}

	// A client counts its requests in an int32. At the edge the counter
	// passes and the population bound stops the run.
	cfg = DefaultConfig(4, 2, Random)
	cfg.RequestsPerClient = math.MaxInt32
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "latency population") {
		t.Errorf("%d requests per client: got %v, want only the population bound named", cfg.RequestsPerClient, err)
	}
	cfg.RequestsPerClient++
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "int32 request counter") {
		t.Errorf("%d requests per client: got %v, want the int32 counter bound named", cfg.RequestsPerClient, err)
	}

	// The diurnal trough stretches the longest think by 1/(1-Amp): an
	// amplitude a hair below 1 stretches it past the clock, and nextThink
	// would hand back a negative think. The tiered cells' 0.6 is far inside.
	cfg = DefaultConfig(4, 2, Random)
	cfg.Workload.DiurnalPeriod = simtime.Second
	for _, amp := range []float64{0.6, 0.999} {
		cfg.Workload.DiurnalAmp = amp
		if err := cfg.Validate(); err != nil {
			t.Errorf("diurnal amplitude %g rejected: %v", amp, err)
		}
	}
	cfg.Workload.DiurnalAmp = 1 - 1e-12
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("diurnal amplitude 1-1e-12: got %v, want the horizon bound named", err)
	}
	// The bound is on the horizon itself, amplitude or none.
	cfg.Workload.DiurnalAmp = 0
	cfg.Workload.ThinkMax = maxHorizon - cfg.Workload.TmMax
	if err := cfg.Validate(); err != nil {
		t.Errorf("a horizon of exactly %d ps rejected: %v", int64(maxHorizon), err)
	}
	cfg.Workload.ThinkMax += simtime.Second
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("a horizon a second past the bound: got %v, want the horizon bound named", err)
	}
}

// TestParsePolicy round-trips every policy name and rejects unknowns.
func TestParsePolicy(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(string(p))
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("fastest"); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("ParsePolicy accepted an unknown name: %v", err)
	}
}

// TestClientLinkCycle: clients cycle the profile list (the default one when
// the config names none) by index, the record's profile index and the
// machine's client mod len rule name the same link, clients on one profile
// share it, and an unknown profile is an error.
func TestClientLinkCycle(t *testing.T) {
	cfg := DefaultConfig(7, 2, Random)
	cfg.LinkProfiles = nil
	clients, profiles, err := buildClients(&cfg, new(runMem))
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != len(defaultLinkProfiles) {
		t.Fatalf("%d profiles built, want one per default name (%d)", len(profiles), len(defaultLinkProfiles))
	}
	for i, cs := range clients {
		l := profiles[cs.prof]
		want, _ := netsim.Profile(defaultLinkProfiles[i%len(defaultLinkProfiles)])
		if l.Name != want.Name || l.BandwidthBps != want.BandwidthBps {
			t.Errorf("client %d on link %q, want the %q profile", i, l.Name, want.Name)
		}
		if m := profiles[clientProfile(int32(i), len(profiles))]; m != l {
			t.Errorf("client %d: its record names link %q, the machine's rule %q", i, l.Name, m.Name)
		}
	}
	if profiles[clients[0].prof] != profiles[clients[3].prof] || profiles[clients[0].prof] == profiles[clients[1].prof] {
		t.Errorf("clients 0 and 3 should share the first profile's link, client 1 not")
	}
	cfg.LinkProfiles = []string{"nope"}
	if _, _, err := buildClients(&cfg, new(runMem)); err == nil {
		t.Errorf("unknown profile accepted")
	}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("Validate accepted an unknown profile: %v", err)
	}
}

// TestPercentile pins the nearest-rank convention.
func TestPercentile(t *testing.T) {
	lat := []simtime.PS{10, 20, 30, 40}
	if got := percentile(lat, 0.50); got != 20 {
		t.Errorf("p50 = %v, want 20", got)
	}
	if got := percentile(lat, 0.99); got != 40 {
		t.Errorf("p99 = %v, want 40", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}
