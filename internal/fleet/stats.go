package fleet

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// stats is the raw tally a run accumulates while in flight: outcome
// counters and the latency population. The engine keeps one per run,
// shared by the client-side handlers and the machine, and finishRun turns
// it into the Result.
type stats struct {
	// Client-side outcome counters.
	Requests  int
	Offloads  int
	Declines  int
	Sheds     int
	Fallbacks int
	// DeadlineMisses counts offloads whose reply landed after the
	// dispatch-time deadline (local-path completions carry no deadline).
	DeadlineMisses int

	// Per-tier completion counters (tiered runs only; a completed
	// request counts on the tier it finished on).
	EdgeOffloads  int
	CloudOffloads int

	// Server-side counters.
	Dispatched int
	Migrations int
	Retried    int
	// Demotions counts cross-tier moves (tiered runs only): saturated-edge
	// arrivals forwarded down to the cloud.
	Demotions int

	// Events counts state-machine transitions (every processed event,
	// decision intent, and delivered completion) — the work measure the
	// scale benchmarks report as events/sec.
	Events int64

	// Latencies is the end-to-end latency population (decision to result
	// in hand), one entry per completed request, on the run memory's array
	// (runMem.lat).
	Latencies []simtime.PS
}

// newStats returns an empty tally whose latency population is rm's, with
// room for that many completions: a run knows how many requests it will
// record, so the population never regrows mid-run, and a run the size of the
// last one reuses its array.
func newStats(completions int, rm *runMem) *stats {
	return &stats{Latencies: resize(rm.lat, completions)[:0]}
}

// record tallies one completion message.
func (s *stats) record(msg doneMsg) {
	lat := msg.done - msg.decide
	s.Latencies = append(s.Latencies, lat)
	switch msg.kind {
	case outOffload:
		s.Offloads++
		switch msg.tier {
		case tierEdge:
			s.EdgeOffloads++
		case tierCloud:
			s.CloudOffloads++
		}
	case outDecline:
		s.Declines++
	case outShed:
		s.Sheds++
	default:
		s.Fallbacks++
	}
	if msg.missed {
		s.DeadlineMisses++
	}
}

// Result is the statistics of one fleet run. All fields are plain values
// derived deterministically from the Config, so two runs with the same
// seed marshal to byte-identical JSON.
type Result struct {
	Policy  string `json:"policy"`
	Queue   string `json:"queue"`
	Clients int    `json:"clients"`
	Servers int    `json:"servers"`
	Seed    uint64 `json:"seed"`

	// Requests = Offloads + Declines + Sheds + Fallbacks: every request
	// completes, remotely or down one of the local paths. Dispatched counts
	// the requests the gate sent toward a server; a server fault can send a
	// dispatched one down the local path, so Offloads + Sheds <= Dispatched
	// <= Offloads + Sheds + Fallbacks.
	Requests   int `json:"requests"`
	Offloads   int `json:"offloads"`   // completed remotely
	Dispatched int `json:"dispatched"` // sent toward a server
	Declines   int `json:"declines"`   // contention-aware gate chose local
	Sheds      int `json:"sheds"`      // admission control forced local fallback
	Fallbacks  int `json:"fallbacks"`  // server fault with no viable recovery: ran locally

	// Fault-recovery traffic (requests here still complete remotely, so
	// they are already inside Offloads).
	Migrations int `json:"migrations"` // running jobs checkpoint-migrated off a drain
	Retried    int `json:"retried"`    // crash victims re-sent / queued jobs forwarded

	// Tiered-topology fields, populated only when Config.Tiers is set
	// (omitted from flat-fleet JSON so the committed BENCH_fleet.json
	// stays byte-identical).
	TierMode      string `json:"tier_mode,omitempty"`
	EdgeServers   int    `json:"edge_servers,omitempty"`
	CloudServers  int    `json:"cloud_servers,omitempty"`
	EdgeOffloads  int    `json:"edge_offloads,omitempty"`  // completed on the edge tier
	CloudOffloads int    `json:"cloud_offloads,omitempty"` // completed on the cloud tier
	Demotions     int    `json:"demotions,omitempty"`      // saturated-edge arrivals forwarded to the cloud
	// Promotions is always zero: demotion is the fleet's one cross-tier
	// move. The field stays only because the benchmark module reports it
	// (bench/fleet.go, tiers.promotions); it goes with that metric.
	Promotions int `json:"promotions,omitempty"`
	// Per-tier queue-wait distributions (ps), the tier split of QueueWait.
	QueueWaitEdge  *obs.HistSnapshot `json:"queue_wait_edge_hist,omitempty"`
	QueueWaitCloud *obs.HistSnapshot `json:"queue_wait_cloud_hist,omitempty"`

	// DeadlineMisses counts offloads whose reply landed after the
	// dispatch-time deadline — completions the client had already given
	// up on. The adaptive admission controller treats these as overruns.
	DeadlineMisses int `json:"deadline_misses"`
	// Events is the total state-machine transition count, a property of
	// the configuration alone (the single-heap test oracle counts the
	// same); events per wall-clock second is the scale benchmark's
	// throughput metric.
	Events int64 `json:"events"`

	// LocalRate is the fraction of requests that ran on the client
	// (gate declines plus admission sheds).
	LocalRate float64 `json:"local_rate"`
	// ThroughputRPS is completed requests per simulated second.
	ThroughputRPS float64 `json:"throughput_rps"`

	// End-to-end request latency (decision to result in hand), ms.
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MeanMs    float64 `json:"mean_ms"`
	GeomeanMs float64 `json:"geomean_ms"`

	// MakespanMs is when the last request completed.
	MakespanMs float64 `json:"makespan_ms"`
	// ServerUtilPct is per-server slot occupancy over the makespan.
	ServerUtilPct []float64 `json:"server_util_pct"`
	// MaxQueueDepth is the deepest run queue observed anywhere.
	MaxQueueDepth int `json:"max_queue_depth"`
	// AvgQueueWaitMs is QueueWait's mean: the queueing delay averaged over
	// every job that entered a server slot.
	AvgQueueWaitMs float64 `json:"avg_queue_wait_ms"`
	// QueueWait is the full queue-wait distribution (ps): every job that
	// enters a server slot records, one that starts on arrival records 0,
	// so the quantiles reflect what an arriving request actually
	// experiences.
	QueueWait obs.HistSnapshot `json:"queue_wait_hist"`
	// E2E is the end-to-end latency distribution (ps) over every
	// completed request: what a histogram that recorded each latency would
	// snapshot to, derived from the sorted population.
	E2E obs.HistSnapshot `json:"e2e_hist"`

	// TraceDropped surfaces the tracer ring's overwrite count, so a bench
	// JSON produced from a truncated trace says so (omitted when the trace
	// is complete or tracing is off — flat-fleet goldens stay byte-identical).
	TraceDropped int64 `json:"trace_dropped,omitempty"`
	// Exemplars are the tail sampler's retained jobs (Config.Exemplars > 0
	// only): per-job critical-path decompositions whose segments sum exactly
	// to the job's end-to-end latency.
	Exemplars []Exemplar `json:"exemplars,omitempty"`

	// readyPaths is which rare paths the engine's ready queue took, for the
	// tests that must show a configuration reaches them.
	readyPaths readyPaths
}

// finishRun checks the end-of-run invariants and assembles the Result
// from the run's tally.
func (m *machine) finishRun(st *stats, now simtime.PS) (*Result, error) {
	for i, s := range m.servers {
		s.advance(now)
		// Slot-accounting invariants: every reservation must have
		// materialized or been released, and every occupied slot drained —
		// including on servers that died mid-service.
		if s.reserved != 0 {
			return nil, fmt.Errorf("fleet: server %d leaked %v of reservations at end of run", i, s.reserved)
		}
		if s.busy != 0 {
			return nil, fmt.Errorf("fleet: server %d ended with %d occupied slots", i, s.busy)
		}
	}
	if got := st.Offloads + st.Declines + st.Sheds + st.Fallbacks; got != st.Requests {
		return nil, fmt.Errorf("fleet: request accounting broken: %d completed of %d issued", got, st.Requests)
	}
	cfg := m.cfg
	res := &Result{
		Policy:         string(cfg.Policy),
		Queue:          "fifo",
		Clients:        cfg.Clients,
		Servers:        len(cfg.Servers),
		Seed:           cfg.Seed,
		Requests:       st.Requests,
		Offloads:       st.Offloads,
		Dispatched:     st.Dispatched,
		Declines:       st.Declines,
		Sheds:          st.Sheds,
		Fallbacks:      st.Fallbacks,
		Migrations:     st.Migrations,
		Retried:        st.Retried,
		DeadlineMisses: st.DeadlineMisses,
		Events:         st.Events,
	}
	res.QueueWait = m.hWait.Snapshot()
	if m.topo != nil {
		res.TierMode = string(m.topo.EffectiveMode())
		res.EdgeServers = m.topo.Edge.Servers
		res.CloudServers = m.topo.Cloud.Servers
		res.EdgeOffloads = st.EdgeOffloads
		res.CloudOffloads = st.CloudOffloads
		res.Demotions = st.Demotions
		eh := m.hWaitTier[tiers.Edge].Snapshot()
		ch := m.hWaitTier[tiers.Cloud].Snapshot()
		res.QueueWaitEdge, res.QueueWaitCloud = &eh, &ch
	}
	res.finish(st.Latencies, m.servers, now)
	if m.samp != nil {
		// Flush the retained exemplars' span trees last: the ring keeps
		// newest, so the trees survive whatever the live stream dropped.
		res.Exemplars = m.samp.flush(cfg.Tracer)
	}
	res.TraceDropped = cfg.Tracer.Dropped()
	return res, nil
}

// percentile returns the q-quantile (0..1) of sorted latencies by nearest
// rank.
func percentile(sorted []simtime.PS, q float64) simtime.PS {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Population sizes below which sortLatencies hands over to a comparison
// sort: a radix pass costs a 256-entry histogram whatever the size.
const (
	radixMinLen    = 512 // whole populations under this go to slices.Sort
	radixInsertion = 48  // buckets under this are insertion-sorted
)

// sortLatencies sorts the population ascending, in place: an American-flag
// (in-place MSD) radix sort from the top byte of the largest value's
// significant bits down, about twice as fast as a comparison sort at a
// million entries and with no scratch buffer. Ascending order of integers
// is unique, so the result is slices.Sort's, element for element.
func sortLatencies(v []simtime.PS) {
	if len(v) < radixMinLen {
		slices.Sort(v)
		return
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	if lo < 0 { // never in a run (latencies are done - decide); radix digits assume unsigned
		slices.Sort(v)
		return
	}
	radixSort(v, uint(max(bits.Len64(uint64(hi))-8, 0)))
}

// radixSort permutes v into its 256 buckets by the byte at shift, then
// sorts each bucket by the next byte down.
func radixSort(v []simtime.PS, shift uint) {
	var count, next, end [256]int
	for _, x := range v {
		count[uint8(x>>shift)]++
	}
	off := 0
	for b, c := range count {
		next[b] = off
		off += c
		end[b] = off
	}
	for b := range next {
		for next[b] < end[b] {
			// Cycle the entry at the bucket's cursor through the buckets
			// it and its successors belong to, until one lands that
			// belongs here.
			x := v[next[b]]
			for d := uint8(x >> shift); int(d) != b; d = uint8(x >> shift) {
				x, v[next[d]] = v[next[d]], x
				next[d]++
			}
			v[next[b]] = x
			next[b]++
		}
	}
	if shift == 0 {
		return
	}
	// Fewer than eight bits left: the next byte overlaps this one, which is
	// harmless (the shared bits are equal within a bucket).
	shift = max(shift, 8) - 8
	for b, c := range count {
		switch bucket := v[end[b]-c : end[b]]; {
		case c < 2:
		case c < radixInsertion:
			for i := 1; i < c; i++ {
				x := bucket[i]
				j := i
				for ; j > 0 && bucket[j-1] > x; j-- {
					bucket[j] = bucket[j-1]
				}
				bucket[j] = x
			}
		default:
			radixSort(bucket, shift)
		}
	}
}

// finish derives the aggregate fields from the raw latency population and
// final server states.
func (r *Result) finish(latencies []simtime.PS, servers []*server, makespan simtime.PS) {
	sortLatencies(latencies)
	r.E2E = obs.SnapshotSorted(latencies)
	r.P50Ms = percentile(latencies, 0.50).Millis()
	r.P99Ms = percentile(latencies, 0.99).Millis()
	var sum simtime.PS
	logSum := 0.0
	for _, l := range latencies {
		sum += l
		logSum += math.Log(l.Millis())
	}
	if n := len(latencies); n > 0 {
		r.MeanMs = (sum / simtime.PS(n)).Millis()
		r.GeomeanMs = math.Exp(logSum / float64(n))
	}
	if r.Requests > 0 {
		r.LocalRate = float64(r.Declines+r.Sheds+r.Fallbacks) / float64(r.Requests)
	}
	if makespan > 0 {
		r.ThroughputRPS = float64(len(latencies)) / makespan.Seconds()
	}
	r.MakespanMs = makespan.Millis()
	// Exactly one recordWait precedes every startJob, so the wait
	// histogram's mean is the average over every job that entered a slot.
	r.AvgQueueWaitMs = simtime.PS(r.QueueWait.Mean()).Millis()
	for _, s := range servers {
		cap := simtime.PS(int64(s.spec.Slots) * int64(makespan))
		util := 0.0
		if cap > 0 {
			util = 100 * float64(s.busyPS) / float64(cap)
		}
		r.ServerUtilPct = append(r.ServerUtilPct, math.Round(util*100)/100)
		if s.maxDepth > r.MaxQueueDepth {
			r.MaxQueueDepth = s.maxDepth
		}
	}
}
