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

// newResult returns the run's empty tally, whose latency population is
// rm's, with room for that many completions: a run knows how many requests
// it will record, so the population never regrows mid-run, and a run the
// size of the last one reuses its array.
func newResult(completions int, rm *runMem) *Result {
	return &Result{lat: resize(rm.lat, completions)[:0]}
}

// record tallies one completion message.
func (r *Result) record(msg doneMsg) {
	r.lat = append(r.lat, msg.done-msg.decide)
	switch msg.kind {
	case outOffload:
		r.Offloads++
		switch msg.tier {
		case tierEdge:
			r.EdgeOffloads++
		case tierCloud:
			r.CloudOffloads++
		}
	case outDecline:
		r.Declines++
	case outShed:
		r.Sheds++
	default:
		r.Fallbacks++
	}
	if msg.missed {
		r.DeadlineMisses++
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
	// lat is the end-to-end latency population (decision to result in
	// hand), one entry per completed request, while the run tallies into
	// the Result; it is on the run memory's array (runMem.lat), so Run
	// clears it before it returns.
	lat []simtime.PS
}

// finishRun checks the end-of-run invariants and derives the Result's
// aggregate fields from the run's tally.
func (m *machine) finishRun(now simtime.PS) error {
	for i, s := range m.servers {
		s.advance(now)
		// Slot-accounting invariants: every reservation must have
		// materialized or been released, and every occupied slot drained —
		// including on servers that died mid-service.
		if s.reserved != 0 {
			return fmt.Errorf("fleet: server %d leaked %v of reservations at end of run", i, s.reserved)
		}
		if s.busy != 0 {
			return fmt.Errorf("fleet: server %d ended with %d occupied slots", i, s.busy)
		}
	}
	res := m.res
	if got := res.Offloads + res.Declines + res.Sheds + res.Fallbacks; got != res.Requests {
		return fmt.Errorf("fleet: request accounting broken: %d completed of %d issued", got, res.Requests)
	}
	cfg := m.cfg
	res.Policy = string(cfg.Policy)
	res.Queue = "fifo"
	res.Clients = cfg.Clients
	res.Servers = len(cfg.Servers)
	res.Seed = cfg.Seed
	res.QueueWait = m.hWait.Snapshot()
	if m.topo != nil {
		res.TierMode = string(m.topo.EffectiveMode())
		res.EdgeServers = m.topo.Edge.Servers
		res.CloudServers = m.topo.Cloud.Servers
		eh := m.hWaitTier[tiers.Edge].Snapshot()
		ch := m.hWaitTier[tiers.Cloud].Snapshot()
		res.QueueWaitEdge, res.QueueWaitCloud = &eh, &ch
	}
	res.finish(m.servers, now)
	if m.samp != nil {
		// Flush the retained exemplars' span trees last: the ring keeps
		// newest, so the trees survive whatever the live stream dropped.
		res.Exemplars = m.samp.flush(cfg.Tracer)
	}
	res.TraceDropped = cfg.Tracer.Dropped()
	return nil
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

// finish derives the aggregate fields from the latency population and
// final server states.
func (r *Result) finish(servers []*server, makespan simtime.PS) {
	latencies := r.lat
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
