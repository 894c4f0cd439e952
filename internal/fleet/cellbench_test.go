package fleet

import (
	"fmt"
	"slices"
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
// The configurations are copies of bench/fleet.go's overloadConfig,
// tieredChaosConfig and localOnly at seed 1 (bench/ is a module of its own
// and cannot be imported); keep them in step by hand. overload/local is the
// run the harness times as the overload workload's setup_s. million/seq is
// not a harness cell: it is the fleetscale regime, a million clients of two
// requests each, where the per-client layout weighs most.
func BenchmarkFleetCell(b *testing.B) {
	overload := DefaultConfig(100000, 16, EstAware)
	overload.RequestsPerClient = 10

	million := DefaultConfig(1_000_000, 16, EstAware)
	million.RequestsPerClient = 2

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

	local := overload
	local.Servers = []ServerSpec{{R: 0.01, Slots: 1}}

	for _, cell := range []struct {
		name string
		cfg  Config
	}{
		{"overload/seq", overload}, {"overload/local", local}, {"tiered/seq", tiered},
		{"million/seq", million},
	} {
		b.Run(cell.name, func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				res, err := Run(cell.cfg)
				if err != nil {
					b.Fatal(err)
				}
				events = res.Events
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// walkPick is the est-aware pick as it shipped before the load index (PR
// 18's scan): every live candidate priced, the divide skipped for one that
// cannot lead, execTime memoized per speed. BenchmarkPick's baseline; the
// correctness oracle is pickAmongRef.
func walkPick(servers []*server, candidates []int, now, tm, transfer simtime.PS) (int, simtime.PS) {
	best, bestWait, bestTotal := -1, simtime.PS(0), simtime.PS(0)
	memo := execMemo{tm: tm}
	for _, i := range candidates {
		s := servers[i]
		if s.down {
			continue
		}
		exec := memo.at(s.spec.R)
		left := s.outstanding(now)
		slots := simtime.PS(s.spec.Slots)
		if best >= 0 && left >= (bestTotal-transfer-exec)*slots {
			continue
		}
		w := left / slots
		if total := transfer + w + exec; best < 0 || total < bestTotal {
			best, bestWait, bestTotal = i, w, total
		}
	}
	return best, bestWait
}

// execMemo is walkPick's cache of execTime(tm, R) for the last two distinct
// speeds the walk met — enough for the pools the constructors build (a tier
// is one run of equal specs, DefaultServers alternates two speeds).
type execMemo struct {
	tm   simtime.PS
	r    [2]float64 // zero is no valid speed (Validate), so empty entries never hit
	exec [2]simtime.PS
}

func (c *execMemo) at(r float64) simtime.PS {
	if r == c.r[0] {
		return c.exec[0]
	}
	if r == c.r[1] {
		return c.exec[1]
	}
	c.r[1], c.exec[1] = c.r[0], c.exec[0]
	c.r[0], c.exec[0] = r, execTime(c.tm, r)
	return c.exec[0]
}

// BenchmarkPick is one est-aware decision with the bookkeeping a dispatch
// does to the winner — reserve, then the arrival's release and start or
// enqueue, and one earlier arrival leaving again so the load stays put —
// through the load index (refresh of the marked servers included) and
// through the walk it replaced, at 16, 160 and 1024 servers of two specs:
// every live server saturated, half of them with free slots, a tenth of
// them down. An iteration is 100 000 decisions, so the fleetbench target's
// fixed -benchtime 3x measures enough of them; read ns/pick.
func BenchmarkPick(b *testing.B) {
	const slots, picks = 4, 100_000
	now := 10 * simtime.Second
	for _, n := range []int{16, 160, 1024} {
		for _, shape := range []string{"saturated", "half-open", "tenth-down"} {
			for _, via := range []string{"index", "walk"} {
				b.Run(fmt.Sprintf("%d/%s/%s", n, shape, via), func(b *testing.B) {
					r := entityStream(23, uint64(n))
					servers := make([]*server, n)
					all := make([]int, n)
					for i := range servers {
						s := &server{spec: ServerSpec{R: poolSpeeds[i%2], Slots: slots}, id: i}
						busy := slots
						if shape == "half-open" && i%2 == 1 {
							busy = slots / 2
						}
						for k := 0; k < busy; k++ {
							j := &job{finish: now + r.rangePS(0, simtime.Second)}
							s.running, s.finSum = append(s.running, j), s.finSum+j.finish
						}
						if busy == slots {
							s.queExec = r.rangePS(0, 2*simtime.Second)
						}
						s.down = shape == "tenth-down" && i%10 == 0
						servers[i], all[i] = s, i
					}
					pick := func(tm, transfer simtime.PS) (int, simtime.PS) {
						return walkPick(servers, all, now, tm, transfer)
					}
					if via == "index" {
						ix := newLoadIndex(servers, all)
						pick = func(tm, transfer simtime.PS) (int, simtime.PS) { return ix.pick(now, tm, transfer) }
					}
					// landed holds the last arrivals; the oldest leaves as a
					// new one lands.
					type arrival struct {
						s *server
						j *job
					}
					landed := make([]arrival, 64)
					for i := range landed {
						landed[i].j = &job{}
					}
					b.ResetTimer()
					for i := 0; i < b.N*picks; i++ {
						tm := simtime.PS(200+i%800) * simtime.Millisecond
						si, _ := pick(tm, 30*simtime.Millisecond)
						s := servers[si]
						a := &landed[i%len(landed)]
						if a.s != nil {
							if a.j.finish != 0 {
								a.s.dropRunning(a.j)
							} else {
								a.s.removeQueued(a.j)
							}
						}
						*a.j = job{exec: s.execTime(tm)}
						a.s = s
						s.reserve(a.j.exec)
						s.release(a.j.exec)
						if len(s.running) < slots {
							a.j.finish = now + a.j.exec
							s.start(a.j)
						} else {
							s.enqueue(a.j)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*picks), "ns/pick")
				})
			}
		}
	}
}

// BenchmarkReadyQueue is the hold model of the engine's client lane: a
// queue kept at a fixed number of pending ready events, each hold one pop
// and one push of that client a think-time later, on the calendar queue
// (over bare client records, which hold its instants) and on the 4-ary heap
// it replaced. An iteration turns the whole queue
// over once (as many holds as are pending), so a fixed -benchtime 3x still
// measures millions of them.
func BenchmarkReadyQueue(b *testing.B) {
	const thinkMin, thinkMax = 500 * simtime.Millisecond, 2 * simtime.Second
	for _, pending := range []int{100_000, 1_000_000} {
		for _, shape := range []string{"heap", "calendar"} {
			b.Run(fmt.Sprintf("%d/%s", pending, shape), func(b *testing.B) {
				r := entityStream(1, 0)
				think := func() simtime.PS { return r.rangePS(thinkMin, thinkMax) }
				holds := b.N * pending
				// One loop per shape: a call through an interface would tax
				// both rows alike and shrink the ratio between them.
				if shape == "heap" {
					q := newHeapQueue(pending)
					for lane := 0; lane < pending; lane++ {
						q.push(think(), int32(lane))
					}
					b.ResetTimer()
					for i := 0; i < holds; i++ {
						ev := q.pop()
						q.push(ev.t+think(), ev.lane)
					}
				} else {
					q := newReadyQueue(make([]clientState, pending), thinkMax)
					for lane := 0; lane < pending; lane++ {
						q.push(think(), int32(lane))
					}
					b.ResetTimer()
					for i := 0; i < holds; i++ {
						ev := q.pop()
						q.push(ev.t+think(), ev.lane)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(holds), "ns/hold")
			})
		}
	}
}

// heapQueue is the client lane's queue as it shipped before the calendar
// queue: a 4-ary min-heap of ready events, the four children of a node 64
// contiguous bytes, the min of four chosen without a branch.
// BenchmarkReadyQueue's baseline.
type heapQueue struct {
	h []readyEv
}

// heapRoot is the root's index in the backing array: with three unused
// entries in front, the children of the node at p are 4(p-2) … 4(p-2)+3, a
// group that starts on a 64-byte boundary whenever the array does.
const heapRoot = 3

func newHeapQueue(lanes int) *heapQueue {
	return &heapQueue{h: make([]readyEv, heapRoot, heapRoot+lanes)}
}

func (q *heapQueue) push(t simtime.PS, lane int32) {
	h := q.h[:len(q.h)+1]
	i := len(h) - 1
	ev := readyEv{t: t, lane: lane}
	for i > heapRoot {
		p := i/4 + 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	q.h = h
}

func (q *heapQueue) pop() readyEv {
	h := q.h
	top := h[heapRoot]
	n := len(h) - 1
	ev := h[n]
	h = h[:n]
	q.h = h
	if n == heapRoot {
		return top
	}
	// Sift the hole at the root down to where the former last entry fits.
	i := heapRoot
	for {
		c := 4 * (i - 2)
		if c >= n {
			break
		}
		m := c
		if c+4 <= n {
			// A full group: the smaller of each pair, then the smaller of
			// those two, as index arithmetic (a if lt is 0, b if 1).
			g := h[c : c+4 : c+4]
			a := g[1].lt(g[0])
			b := 2 + g[3].lt(g[2])
			m = c + int(a^((a^b)&-g[b].lt(g[a])))
		} else {
			for k := c + 1; k < n; k++ {
				if h[k].before(h[m]) {
					m = k
				}
			}
		}
		if !h[m].before(ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
	return top
}

// BenchmarkSortLatencies sorts a million latencies between 0 and 5 s, the
// overload cell's population size, with the library sort and with
// sortLatencies.
func BenchmarkSortLatencies(b *testing.B) {
	r := entityStream(1, 1)
	pop := make([]simtime.PS, 1_000_000)
	for i := range pop {
		pop[i] = r.rangePS(0, 5*simtime.Second)
	}
	work := make([]simtime.PS, len(pop))
	for _, s := range []struct {
		name string
		sort func([]simtime.PS)
	}{{"slices.Sort", slices.Sort[[]simtime.PS]}, {"sortLatencies", sortLatencies}} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work, pop)
				b.StartTimer()
				s.sort(work)
			}
		})
	}
}
