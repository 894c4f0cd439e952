package fleet

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// TestFlatIsOneTierTopology is the differential behind the single intent
// path: a homogeneous flat pool and the same pool described as an
// edge-only topology with no cloud must make every decision identically —
// same gate verdicts, same dispatches, same sheds, same latencies. Only the
// tier-labelled Result fields may differ.
func TestFlatIsOneTierTopology(t *testing.T) {
	const n, r, slots = 3, 4.0, 2
	flat := DefaultConfig(64, n, EstAware)
	flat.Seed = 9
	// A wait bound tight enough that est-aware routing still sheds.
	flat.Admission = Admission{MaxQueue: 2, MaxWait: 300 * simtime.Millisecond}
	for i := range flat.Servers {
		flat.Servers[i] = ServerSpec{R: r, Slots: slots}
	}
	tiered := flat
	tiered.Tiers = &tiers.Topology{Mode: tiers.EdgeOnly,
		Edge: tiers.Pool{Servers: n, R: r, Slots: slots}}
	tiered.Servers = TieredServers(tiered.Tiers)

	a, err := Run(flat)
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	b, err := Run(tiered)
	if err != nil {
		t.Fatalf("one-tier: %v", err)
	}
	if a.Sheds == 0 || a.Declines == 0 || a.Offloads == 0 {
		t.Fatalf("cell too tame to compare (%d offloads, %d declines, %d sheds)",
			a.Offloads, a.Declines, a.Sheds)
	}
	type counts struct {
		Requests, Dispatched, Offloads, Declines, Sheds, Fallbacks int
		Events                                                     int64
	}
	ca := counts{a.Requests, a.Dispatched, a.Offloads, a.Declines, a.Sheds, a.Fallbacks, a.Events}
	cb := counts{b.Requests, b.Dispatched, b.Offloads, b.Declines, b.Sheds, b.Fallbacks, b.Events}
	if ca != cb {
		t.Errorf("flat %+v != one-tier %+v", ca, cb)
	}
	if fmt.Sprint(a.E2E) != fmt.Sprint(b.E2E) {
		t.Error("end-to-end latency distributions differ")
	}
	if fmt.Sprint(a.QueueWait) != fmt.Sprint(b.QueueWait) {
		t.Error("queue-wait distributions differ")
	}
}

// traceDigest runs cfg on an engine with an unbounded-enough tracer and
// hashes the complete event stream, field by field, in emission order.
func traceDigest(t *testing.T, cfg Config, engine func(Config) (*Result, error)) string {
	t.Helper()
	tr := obs.NewTracer(1 << 18)
	cfg.Tracer = tr
	res, err := engine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceDropped != 0 {
		t.Fatalf("ring dropped %d events — the digest would cover a truncated stream", res.TraceDropped)
	}
	h := sha256.New()
	for _, e := range tr.Events() {
		fmt.Fprintf(h, "%d %d %d %d %q %d %d %d %d %d\n",
			e.Time, e.Dur, e.Kind, e.Track, e.Name, e.A0, e.A1, e.A2, e.A3, e.Job)
	}
	return fmt.Sprintf("%d:%x", tr.Len(), h.Sum(nil)[:8])
}

// TestTraceDigestPinned pins whole event streams the Result JSON cannot
// see: gate verdict arguments, dispatch/queue/shed records, and — on the
// chaos cell — retry, migration, tier-move and exemplar span events. The
// digests were recorded before the intent paths and the re-placement
// operations were unified, and re-recorded when events lost their parent
// field (the three flat streams hash the same at the commit before that
// change) and the tiered stream lost promotion; any reordering, dropped or
// altered event in either the flat or the tiered stream changes them. The
// single-heap oracle must hash to the same digests as the engine Run picks.
func TestTraceDigestPinned(t *testing.T) {
	flat := func(pol Policy) Config {
		cfg := DefaultConfig(48, 2, pol)
		cfg.Seed = 5
		return cfg
	}
	flatChaos := DefaultConfig(48, 4, LeastLoaded)
	flatChaos.Seed = 5
	flatChaos.Migrate = true
	flatChaos.ServerFaults = &faults.ServerPlan{Events: []faults.ServerEvent{
		{Kind: faults.Drain, Server: 0, Start: 700 * simtime.Millisecond},
		{Kind: faults.Crash, Server: 1, Start: 1500 * simtime.Millisecond},
	}}
	chaos := tieredBenchConfig(96, tiers.ThreeWay)
	chaos.Tiers = tiers.Default(4, 2)
	chaos.Servers = TieredServers(chaos.Tiers)
	chaos.Exemplars = 4
	chaos.ServerFaults = &faults.ServerPlan{Events: []faults.ServerEvent{
		{Kind: faults.Drain, Server: 0, Start: 3 * simtime.Second},
		{Kind: faults.Crash, Server: 4, Start: 6 * simtime.Second},
	}}
	res, err := Run(chaos)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 || res.Retried == 0 || res.Demotions == 0 {
		t.Fatalf("chaos cell is vacuous: %d migrations, %d retried, %d demotions",
			res.Migrations, res.Retried, res.Demotions)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"flat/est-aware", flat(EstAware), "618:cc16a686a3307f3c"},
		{"flat/round-robin", flat(RoundRobin), "818:bc244eeee9c9977e"},
		{"flat/chaos", flatChaos, "821:351e61bc755d1c33"},
		{"tiered/chaos", chaos, "6998:cb66506e16932fca"},
	} {
		if got := traceDigest(t, tc.cfg, Run); got != tc.want {
			t.Errorf("%s: trace digest %s, want %s", tc.name, got, tc.want)
		}
		if got := traceDigest(t, tc.cfg, runSequentialRef); got != tc.want {
			t.Errorf("%s: single-heap reference trace digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
