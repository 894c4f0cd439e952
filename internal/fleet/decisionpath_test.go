package fleet

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// The decision path is rewritten for host cost only; these tests hold the
// rewrite to the implementation it replaced on states the stream goldens
// never visit. pickAmongRef, promoteRef and replaceRef are that
// implementation, moved here verbatim: they exist only as oracles.

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

// promoteRef is promote's candidate search as it stood before the prune:
// every running and every queued job of every live cloud server priced in
// full.
func promoteRef(m *machine, now simtime.PS, e *server) (best *job, bi int, bestRunning bool, bestGain simtime.PS) {
	bi = -1
	consider := func(j *job, ci int, running bool, stay simtime.PS, remTm simtime.PS) {
		ship := m.wan.TransferTime(j.mem)
		at := now + ship
		move := at + e.estWaitAt(at) + e.execTime(remTm) + j.adown
		gain := stay - move
		if gain <= ship {
			return
		}
		if best == nil || gain > bestGain || (gain == bestGain && j.seq < best.seq) {
			best, bi, bestRunning, bestGain = j, ci, running, gain
		}
	}
	for _, ci := range m.cloudIdx {
		c := m.servers[ci]
		if c.down {
			continue
		}
		for _, j := range c.running {
			if j.cancelled || j.finish <= now {
				continue
			}
			remTm := simtime.PS(float64(j.finish-now) * c.spec.R)
			consider(j, ci, true, j.finish+j.down, remTm)
		}
		if c.busy >= c.spec.Slots {
			backlog := c.estWaitAt(now)
			for _, j := range c.queue {
				consider(j, ci, false, now+backlog+j.exec+j.down, j.tm)
			}
		}
	}
	return best, bi, bestRunning, bestGain
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

// promoteState is a random tiered machine frozen at one instant: an edge
// server whose queue just drained, and cloud servers holding running and
// queued jobs built the way the machine builds them (a cloud job's reply
// leg is its access leg plus the WAN transfer of its footprint).
func promoteState(r *rng, edgeR, cloudR float64, wan *netsim.Link) (*machine, simtime.PS, *server) {
	topo := &tiers.Topology{
		Edge:  tiers.Pool{Servers: 1 + r.intn(3), R: edgeR, Slots: 1 + r.intn(3)},
		Cloud: tiers.Pool{Servers: 1 + r.intn(6), R: cloudR, Slots: 1 + r.intn(4)},
	}
	cfg := TieredConfig(8, topo)
	m := newMachine(&cfg, nil, NewStats(0))
	m.setWAN(wan)
	now := r.rangePS(simtime.Second, 20*simtime.Second)
	var seq int64
	cloudJob := func(c *server) *job {
		seq++
		tm := r.rangePS(200*simtime.Millisecond, 2*simtime.Second)
		mem := r.rangeI64(64<<10, 4<<20)
		adown := r.rangePS(simtime.Millisecond, 40*simtime.Millisecond)
		return &job{id: seq, seq: seq, tm: tm, mem: mem, exec: c.execTime(tm),
			adown: adown, down: adown + m.wan.TransferTime(mem), tier: tierCloud}
	}
	// The edge target: possibly busy slots and work in flight toward it.
	e := m.servers[r.intn(len(m.edgeIdx))]
	for k := r.intn(e.spec.Slots + 1); k > 0; k-- {
		j := &job{finish: now + r.rangePS(0, 300*simtime.Millisecond)}
		e.running = append(e.running, j)
		e.finSum += j.finish
		e.busy++
	}
	if r.intn(3) == 0 {
		e.reserved = r.rangePS(0, 200*simtime.Millisecond)
	}
	for _, ci := range m.cloudIdx {
		c := m.servers[ci]
		c.down = r.intn(6) == 0
		for k := r.intn(c.spec.Slots + 1); k > 0; k-- {
			j := cloudJob(c)
			// Mostly mid-service, now and then finishing this instant or
			// tombstoned by a crash.
			j.finish = now + r.rangePS(0, 2*simtime.Second)
			switch r.intn(10) {
			case 0:
				j.finish = now
			case 1:
				j.cancelled = true
			}
			c.running = append(c.running, j)
			c.finSum += j.finish
			c.busy++
		}
		if c.busy == c.spec.Slots || r.intn(8) == 0 {
			for k := r.intn(6); k > 0; k-- {
				c.enqueue(cloudJob(c))
			}
		}
	}
	// Equal gains on different servers must fall to the older dispatch:
	// copy one queued job (younger seq) onto another server with the same
	// backlog.
	if r.intn(3) == 0 && len(m.cloudIdx) > 1 {
		a, b := m.servers[m.cloudIdx[0]], m.servers[m.cloudIdx[1]]
		if len(a.queue) > 0 && !a.down {
			*b = *a
			b.queue = nil
			b.queExec = 0
			for _, j := range a.queue {
				seq++
				twin := *j
				twin.seq, twin.id = seq, seq
				b.enqueue(&twin)
			}
		}
	}
	return m, now, e
}

// TestPromoteMatchesReference: the pruned promotion search returns the
// reference's job, from the reference's server, with the reference's gain
// — on a faster, an equal and a slower cloud, over the default WAN, a
// backhaul too cheap for the ship time to dominate, and the ideal link
// whose ship time is zero.
func TestPromoteMatchesReference(t *testing.T) {
	wans := []struct {
		name string
		link func() *netsim.Link
	}{
		{"cloud-wan", netsim.CloudWAN},
		{"ideal", netsim.Ideal},
		{"sub-us", func() *netsim.Link {
			return &netsim.Link{Name: "sub-us", BandwidthBps: 400_000_000_000, Latency: 100, PerMessage: 10}
		}},
	}
	speeds := []struct {
		name         string
		edgeR, cloud float64
	}{{"cloud-faster", 3, 8}, {"equal", 1.5, 1.5}, {"cloud-slower", 6, 1.5}, {"edge-below-phone", 0.5, 8}}
	for wk, wan := range wans {
		for sk, sp := range speeds {
			t.Run(wan.name+"/"+sp.name, func(t *testing.T) {
				r := entityStream(18, uint64(100+10*wk+sk))
				running, queued, none := 0, 0, 0
				for trial := 0; trial < 400; trial++ {
					m, now, e := promoteState(&r, sp.edgeR, sp.cloud, wan.link())
					gj, gi, grun, ggain := m.promotionCandidate(now, e)
					wj, wi, wrun, wgain := promoteRef(m, now, e)
					if gj != wj || gi != wi || grun != wrun || ggain != wgain {
						t.Fatalf("trial %d: got job %v on server %d (running %v) gain %d, reference job %v on %d (running %v) gain %d",
							trial, gj, gi, grun, ggain, wj, wi, wrun, wgain)
					}
					switch {
					case wj == nil:
						none++
					case wrun:
						running++
					default:
						queued++
					}
				}
				// The reference itself bears the derivation out: a running
				// job wins on a slower cloud, and otherwise only in the
				// degenerate corner where the ship is free and truncation
				// leaves the edge a picosecond ahead (R = 1.5, odd d).
				mayRun := sp.cloud < sp.edgeR || (wan.name == "ideal" && sp.name == "equal")
				if queued == 0 || none == 0 || mayRun != (running > 0) {
					t.Errorf("coverage: %d running winners (expected some: %v), %d queued, %d none", running, mayRun, queued, none)
				}
			})
		}
	}
}

// TestFleetRunAllocBudget: a small tiered cell stays inside a per-request
// allocation budget, so per-decision allocation cannot come back
// unnoticed. One alive-set slice per pick and tier cost this 80-server
// cell 680 B per request; what is left (about 23 B) is set-up, the
// presized latency population and the event heap.
func TestFleetRunAllocBudget(t *testing.T) {
	const clients, requests, budget = 64, 50, 64 // budget in bytes per request
	cfg := TieredConfig(clients, tiers.Default(64, 16))
	cfg.RequestsPerClient = requests
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
