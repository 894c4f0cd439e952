package offrt

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// TestTieredGatePlaces: with a topology behind it, the gate becomes the
// 3-way placement — tiny tasks stay local, moderate ones land on the
// edge (low RTT beats the cloud's compute edge), and long ones go to the
// cloud (the execution saving amortizes the WAN round trip) — with the
// choice counted per tier and traced as tier.place.
func TestTieredGatePlaces(t *testing.T) {
	topo := tiers.Default(2, 1)
	env := setup(t, netsim.Fast80211AC(), Policy{},
		WithTiers(topo), WithTracer(obs.NewTracer(0)))
	defer env.sess.shutdown()

	cases := []struct {
		name string
		tm   simtime.PS
		mem  int64
		want string // expected placement trace name
		gate bool
	}{
		// Far below any communication cost: local.
		{"tiny", 50 * simtime.Microsecond, 4 << 20, "local", false},
		// Profitable remotely, but the ~80ms WAN round trip dwarfs the
		// extra compute saving of the faster cloud: edge.
		{"moderate", 200 * simtime.Millisecond, 64 << 10, "edge", true},
		// Long enough that the cloud's higher R wins despite the WAN: cloud.
		{"heavy", 30 * simtime.FromSeconds(1), 64 << 10, "cloud", true},
	}
	for i, tc := range cases {
		id := int32(100 + i)
		env.sess.tasks[id] = TaskSpec{TaskID: int(id), Name: tc.name,
			TimePerInvocation: tc.tm, MemBytes: tc.mem}
		env.sess.PerTask[int(id)] = &TaskStats{}
		if got := env.sess.Gate(env.mobile, id); got != tc.gate {
			t.Errorf("%s: Gate = %v, want %v", tc.name, got, tc.gate)
		}
	}
	if env.sess.Stats.EdgePlaced != 1 || env.sess.Stats.CloudPlaced != 1 {
		t.Errorf("placement counters = edge %d, cloud %d; want 1, 1",
			env.sess.Stats.EdgePlaced, env.sess.Stats.CloudPlaced)
	}
	var names []string
	for _, ev := range env.sess.Tracer.Events() {
		if ev.Kind == obs.KTierPlace {
			names = append(names, ev.Name)
		}
	}
	if len(names) != len(cases) {
		t.Fatalf("traced %d tier.place events, want %d", len(names), len(cases))
	}
	for i, tc := range cases {
		if names[i] != tc.want {
			t.Errorf("%s: placed %q, want %q", tc.name, names[i], tc.want)
		}
	}
}

// TestTieredGateCloudOnlyMasksEdge: a cloud-only topology must never
// place on the edge, and the WAN-dominated estimate flips marginal tasks
// back to local — the decision the 3-way mode would have sent to the edge.
func TestTieredGateCloudOnlyMasksEdge(t *testing.T) {
	topo := tiers.Default(2, 1)
	topo.Mode = tiers.CloudOnly
	env := setup(t, netsim.Fast80211AC(), Policy{}, WithTiers(topo))
	defer env.sess.shutdown()

	// Edge-profitable, but shorter than the ~80ms WAN round trip even at
	// infinite cloud speed — the cloud can never win this one.
	env.sess.tasks[99] = TaskSpec{TaskID: 99, Name: "short",
		TimePerInvocation: 50 * simtime.Millisecond, MemBytes: 64 << 10}
	env.sess.PerTask[99] = &TaskStats{}
	if env.sess.Gate(env.mobile, 99) {
		t.Error("cloud-only gate offloaded a task only the edge could carry")
	}
	if env.sess.Stats.EdgePlaced != 0 {
		t.Errorf("cloud-only session placed %d tasks on the edge", env.sess.Stats.EdgePlaced)
	}
}

// TestWithTiersValidates pins constructor validation.
func TestWithTiersValidates(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{})
	defer env.sess.shutdown()
	bad := &tiers.Topology{Mode: "bogus"}
	if _, err := NewSession(env.mobile, env.server, env.link, WithTiers(bad)); err == nil {
		t.Error("invalid topology accepted")
	}
}
