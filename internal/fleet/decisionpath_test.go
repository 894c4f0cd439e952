package fleet

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/simtime"
	"repro/internal/tiers"
)

// The decision path is rewritten for host cost only; these tests hold the
// rewrite to the implementation it replaced on states the stream goldens
// never visit. pickAmongRef and replaceRef are that implementation, moved
// here verbatim: they exist only as oracles.

// pickAmongRef is pickAmong as it stood before the load index: build the
// alive set, then compute every candidate's estimate in full.
func pickAmongRef(d *dispatcher, servers []*server, candidates []int, now simtime.PS, tm simtime.PS, up, down simtime.PS) (int, simtime.PS) {
	alive := make([]int, 0, len(candidates))
	for _, i := range candidates {
		if !servers[i].down {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return -1, 0
	}
	switch d.policy {
	case Random:
		i := alive[d.rng.intn(len(alive))]
		return i, servers[i].estWait(now)
	case RoundRobin:
		i := alive[d.rr%len(alive)]
		d.rr++
		return i, servers[i].estWait(now)
	case LeastLoaded:
		best, bestWait := alive[0], servers[alive[0]].estWait(now)
		for _, i := range alive[1:] {
			if w := servers[i].estWait(now); w < bestWait {
				best, bestWait = i, w
			}
		}
		return best, bestWait
	default: // EstAware
		best := alive[0]
		bestWait := servers[best].estWait(now)
		bestTotal := up + bestWait + servers[best].execTime(tm) + down
		for _, i := range alive[1:] {
			w := servers[i].estWait(now)
			total := up + w + servers[i].execTime(tm) + down
			if total < bestTotal {
				best, bestWait, bestTotal = i, w, total
			}
		}
		return best, bestWait
	}
}

var poolSpeeds = []float64{1.5, 3, 6, 8}

// replaceRef is replace's target search as it stood before it asked the
// index first: the walk over every live candidate and the race against
// bar, without the forward.
func replaceRef(m *machine, j *job, candidates []int, remTm, at, bar simtime.PS) int {
	ti, bestTotal := -1, simtime.PS(0)
	for _, i := range candidates {
		s := m.servers[i]
		if s.down {
			continue
		}
		total := s.estWaitAt(at) + s.execTime(remTm)
		if ti < 0 || total < bestTotal {
			ti, bestTotal = i, total
		}
	}
	if ti < 0 {
		return -1
	}
	if down, _ := m.replyLeg(j, ti); at+bestTotal+down >= bar {
		return -1
	}
	return ti
}

// randomPool builds 1-200 servers in a random, reachable load state: every
// running job finishes at or after now and no reservation is negative, the
// two invariants the machine keeps and loadIndex relies on. (The pools
// this once also built with finish instants in the past, outstanding work
// negative, existed to check the walk's multiply-and-compare prune on both
// sides of integer division's rounding; they went with the prune.) Some
// of queExec and reserved is backed by no job: a constant the mutators
// leave alone.
func randomPool(r *rng, now simtime.PS) []*server {
	n := 1 + r.intn(200)
	oneSpeed := r.intn(3) == 0
	speed := poolSpeeds[r.intn(len(poolSpeeds))]
	downPct := r.intn(101)
	if r.intn(8) == 0 {
		downPct = 100
	}
	allLoaded := r.intn(2) == 0
	servers := make([]*server, n)
	for i := range servers {
		s := &server{spec: ServerSpec{R: speed, Slots: 1 + r.intn(8)}}
		if !oneSpeed {
			s.spec.R = poolSpeeds[r.intn(len(poolSpeeds))]
		}
		s.down = r.intn(100) < downPct
		if allLoaded || r.intn(3) > 0 { // else a third of the pool idles: ties at zero wait
			s.reserved = r.rangePS(0, 3*simtime.Second)
			s.running = make([]*job, r.intn(s.spec.Slots+1))
			for k := range s.running {
				s.running[k] = &job{finish: now + r.rangePS(0, 2*simtime.Second)}
				s.finSum += s.running[k].finish
			}
			if len(s.running) == s.spec.Slots {
				s.queExec = r.rangePS(0, 5*simtime.Second)
			}
		}
		servers[i] = s
	}
	// Forced ties and near-ties: clone a server's whole state onto a later
	// index, exactly or a few picoseconds of work either side of a slot
	// multiple, so equal totals meet at a distance (the lowest index must
	// win) and totals one apart land on both sides of a boundary of the
	// divide by Slots, in estWait and in the index's key alike.
	// Half the clones copy the least-loaded server, the likeliest leader.
	for k := r.intn(8); k > 0 && n > 1; k-- {
		from, to := r.intn(n), r.intn(n)
		if r.intn(2) == 0 {
			for i, s := range servers {
				if s.estWait(now) < servers[from].estWait(now) {
					from = i
				}
			}
		}
		if from == to {
			continue
		}
		if from > to {
			from, to = to, from
		}
		down := servers[to].down
		*servers[to] = *servers[from]
		servers[to].down = down
		servers[to].running = make([]*job, len(servers[from].running))
		for k, j := range servers[from].running {
			servers[to].running[k] = &job{finish: j.finish}
		}
		if slots := servers[to].spec.Slots; r.intn(2) == 0 {
			servers[to].reserved = max(0, servers[to].reserved+simtime.PS(r.intn(4*slots+1)-2*slots))
		}
	}
	return servers
}

// candidateSets are the shapes of set the machine indexes: the whole pool,
// a tier-like prefix or suffix, or nothing at all.
func candidateSets(r *rng, n int) [][]int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	cut := r.intn(n + 1)
	return [][]int{all, all[:cut], all[cut:], nil}
}

// TestPickAmongMatchesReference: on random pools — heterogeneous and
// uniform speeds, 1-8 slots, any share of the pool down, exact ties and
// near-ties, empty and all-down candidate sets — every policy makes the
// reference's pick through a whole sequence of picks over one indexed
// candidate set, returns the reference's wait, and leaves its rng and
// round-robin cursor where the reference leaves them.
func TestPickAmongMatchesReference(t *testing.T) {
	const pools, picks = 1500, 12
	r := entityStream(18, 1)
	ties, nobody := 0, 0
	for p := 0; p < pools; p++ {
		now := r.rangePS(0, 30*simtime.Second)
		servers := randomPool(&r, now)
		sets := candidateSets(&r, len(servers))
		// The clock may not pass a running job's finish: its evFinish would
		// have fired first.
		horizon := simtime.PS(math.MaxInt64)
		for _, s := range servers {
			for _, j := range s.running {
				horizon = min(horizon, j.finish)
			}
		}
		for _, pol := range Policies() {
			cand := sets[r.intn(len(sets))]
			ix := newLoadIndex(servers, cand)
			seed := r.next()
			got := dispatcher{policy: pol, rng: rng{s: seed}, rr: r.intn(1000)}
			want := got
			for k := 0; k < picks; k++ {
				tm := r.rangePS(200*simtime.Millisecond, 2*simtime.Second)
				up := r.rangePS(0, 400*simtime.Millisecond)
				down := r.rangePS(0, 400*simtime.Millisecond)
				gi, gw := got.pickAmong(ix, now, tm, up, down)
				wi, ww := pickAmongRef(&want, servers, cand, now, tm, up, down)
				if gi != wi || gw != ww {
					t.Fatalf("pool %d %s pick %d over %d candidates: got server %d wait %d, reference %d wait %d",
						p, pol, k, len(cand), gi, gw, wi, ww)
				}
				if got != want {
					t.Fatalf("pool %d %s pick %d: dispatcher state %+v, reference %+v", p, pol, k, got, want)
				}
				if gi < 0 {
					nobody++
					continue
				}
				if pol == EstAware {
					for _, i := range cand {
						s := servers[i]
						if i != gi && !s.down && s.estWait(now)+s.execTime(tm) == gw+servers[gi].execTime(tm) {
							ties++
							break
						}
					}
				}
				// The pick lands the way a dispatch does: its service time
				// is reserved on the winner and the clock moves on.
				servers[gi].reserve(servers[gi].execTime(tm))
				now = min(now+r.rangePS(0, 20*simtime.Millisecond), horizon)
			}
		}
	}
	if ties == 0 || nobody == 0 {
		t.Errorf("vacuous: %d picks won a tie, %d found nobody up", ties, nobody)
	}
}

// TestPickAmongZeroAlloc: a pick over the benchmark's 160-server pool
// allocates nothing, under every policy — the reservation between picks
// included, which marks the winner stale and has the next pick re-file it
// (the stale list reuses its capacity).
func TestPickAmongZeroAlloc(t *testing.T) {
	r := entityStream(18, 2)
	servers := make([]*server, 160)
	all := make([]int, len(servers))
	for i := range servers {
		servers[i] = &server{spec: ServerSpec{R: poolSpeeds[i%2], Slots: 2},
			reserved: r.rangePS(0, simtime.Second), down: i%7 == 0}
		if i%3 > 0 { // two thirds saturated, in the trees; the rest open
			fin := 2 * simtime.Second
			servers[i].running, servers[i].finSum = []*job{{finish: fin}, {finish: fin}}, 2*fin
		}
		all[i] = i
	}
	ix := newLoadIndex(servers, all)
	for _, pol := range Policies() {
		d := dispatcher{policy: pol, rng: entityStream(18, 3)}
		allocs := testing.AllocsPerRun(100, func() {
			i, _ := d.pickAmong(ix, simtime.Second, simtime.Second, simtime.Millisecond, simtime.Millisecond)
			if i < 0 {
				t.Fatal("nobody up")
			}
			servers[i].reserve(simtime.Millisecond)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per pick, want 0", pol, allocs)
		}
	}
}

// TestFleetRunAllocBudget: a small tiered cell stays inside a per-request
// allocation budget, so per-decision allocation cannot come back
// unnoticed. One alive-set slice per pick and tier cost this 80-server
// cell 680 B per request; what is left (about 23 B) is set-up, the
// presized latency population and the event heap. The run is cold — the
// spare list is emptied first — so the run memory counts in full.
func TestFleetRunAllocBudget(t *testing.T) {
	const clients, requests, budget = 64, 50, 64 // budget in bytes per request
	cfg := TieredConfig(clients, tiers.Default(64, 16))
	cfg.RequestsPerClient = requests
	drainSpares()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeOffloads == 0 || res.CloudOffloads == 0 {
		t.Fatalf("cell too tame: %d edge, %d cloud offloads", res.EdgeOffloads, res.CloudOffloads)
	}
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(clients*requests)
	t.Logf("%.1f B allocated per request", perReq)
	if perReq > budget {
		t.Errorf("%.1f B allocated per request, budget %d", perReq, budget)
	}
}
