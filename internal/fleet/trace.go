package fleet

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// Per-job span records and the deterministic tail sampler.
//
// Every logical offload request carries a JobID fixed at issue time
// (client id x RequestsPerClient + request ordinal), stable across
// retries, cross-tier moves and migrations — the same id the continuation
// jobs a relocate or demote creates inherit. While a job is in flight
// the machine stamps a compact jobRec with causal marks: each mark closes
// the interval since the previous one under a segment label (uplink,
// queue, run, reply, WAN ship, fault detection, ...), so at completion
// the marks partition [decide, done] exactly — the invariant the
// critical-path analyzer's sum identity rests on.
//
// The sampler is tail-based: every completion feeds its summary in, but
// full span trees are retained only for the slowest-K jobs, the K worst
// of each anomaly category (shed / migrated / faulted), and a K-sized
// seeded baseline population. Retention is decided by total orders on
// (latency, id) and on a per-entity hash from entityStream(seed, id) —
// both independent of observation order — and every decision runs in the
// machine, in the (t, lane, seq) event order, so the retained set is a
// property of the configuration by construction. At end of run the
// retained trees flush into the existing bounded tracer ring as
// KJob/KJobSeg span events; a million-client sweep keeps exemplar traces
// inside the same ring that already bounds the live stream.

// Segment labels a jobRec mark closes.
const (
	segUplink uint8 = iota
	segQueue
	segRun
	segReply
	segWanShip
	segResend
	segDetect
	segRunLost
	segQueueLost
	segNotice
	segDeadline
	segLocal
	numSegs
)

var segName = [numSegs]string{
	"uplink", "queue", "run", "reply", "wan.ship", "resend",
	"fault.detect", "run.lost", "queue.lost", "shed.notice",
	"deadline.wait", "local.exec",
}

// segTrack places a segment on its exporter track: device-side intervals
// on mobile, transfers on the link, served intervals on the server's tier.
func segTrack(seg uint8, si int32, topo *tiers.Topology) obs.Track {
	switch seg {
	case segQueue, segRun, segRunLost, segQueueLost:
		if topo != nil && si >= 0 {
			return topo.TierOf(int(si)).Track()
		}
		return obs.TrackServer
	case segUplink, segReply, segWanShip, segResend:
		return obs.TrackLink
	}
	return obs.TrackMobile
}

// mark closes the interval since the previous mark under seg, attributed
// to server si (-1 when no server is involved).
type mark struct {
	t   simtime.PS
	seg uint8
	si  int32
}

// jobRec is one job's compact span record — fixed fields plus the mark
// chain, a few dozen bytes per in-flight job, recycled through a pool.
type jobRec struct {
	id     int64
	client int32
	server int32 // final server (-1 for local completions)
	tier   uint8
	out    uint8
	missed bool

	// Anomaly category flags the machine sets as the job's life unfolds.
	faulted  bool // touched by a server fault (crash/drain/dead-server arrival)
	migrated bool // moved cross-tier or checkpoint-migrated

	tm     simtime.PS
	mem    int64
	decide simtime.PS
	done   simtime.PS
	marks  []mark

	refs  int8 // retention sets holding this rec
	final bool // completion observed
}

func (r *jobRec) mark(t simtime.PS, seg uint8, si int32) {
	if r == nil {
		return
	}
	prev := r.decide
	if n := len(r.marks); n > 0 {
		prev = r.marks[n-1].t
	}
	if t <= prev {
		return // zero-width interval: nothing to charge
	}
	r.marks = append(r.marks, mark{t: t, seg: seg, si: si})
}

// fault flags the job as touched by a server fault; nil-safe like mark.
func (r *jobRec) fault() {
	if r != nil {
		r.faulted = true
	}
}

// migrate flags the job as moved cross-tier or checkpoint-migrated.
func (r *jobRec) migrate() {
	if r != nil {
		r.migrated = true
	}
}

var outName = [...]string{"offload", "decline", "shed", "fallback"}

// rootEvent is the job's KJob summary span — emitted live at completion
// (the cheap record every job contributes) and again at flush for
// retained exemplars. Both constructions are value-identical, so the
// span assembler's duplicate collapse merges them.
func (r *jobRec) rootEvent() obs.Event {
	return obs.Event{
		Time: r.decide, Dur: r.done - r.decide,
		Kind: obs.KJob, Track: obs.TrackMobile,
		Name: outName[r.out], Job: r.id,
		A0: int64(r.client), A1: int64(r.server), A2: int64(r.tm), A3: r.mem,
	}
}

// setEntry ranks a retained rec by the lexicographic (a, b) score; the
// lowest-scored entry is evicted first.
type setEntry struct {
	a, b int64
	rec  *jobRec
}

// keepSet retains the k highest-scored recs seen so far. Scores are
// unique (b embeds the job id), so the surviving set is a property of the
// observed population, not of observation order — why the single-heap
// test oracle, which observes in the same order by another route, retains
// the same set.
type keepSet struct {
	k  int
	es []setEntry // sorted ascending by (a, b)
}

func (s *keepSet) add(a, b int64, r *jobRec) (evicted *jobRec) {
	if s.k <= 0 {
		return nil
	}
	if len(s.es) == s.k {
		low := s.es[0]
		if a < low.a || (a == low.a && b < low.b) {
			return nil // below the bar: not retained
		}
		evicted = low.rec
		copy(s.es, s.es[1:])
		s.es = s.es[:len(s.es)-1]
	}
	i := sort.Search(len(s.es), func(i int) bool {
		return s.es[i].a > a || (s.es[i].a == a && s.es[i].b > b)
	})
	s.es = append(s.es, setEntry{})
	copy(s.es[i+1:], s.es[i:])
	s.es[i] = setEntry{a: a, b: b, rec: r}
	r.refs++
	if evicted != nil {
		evicted.refs--
	}
	return evicted
}

// sampler is the machine-owned tail sampler.
type sampler struct {
	seed uint64
	topo *tiers.Topology

	slow     keepSet // slowest-K overall
	shed     keepSet // slowest-K admission sheds
	migrated keepSet // slowest-K cross-tier / checkpoint moves
	faulted  keepSet // slowest-K server-fault victims
	baseline keepSet // seeded reservoir: K smallest per-entity hashes

	free []*jobRec
}

func newSampler(cfg *Config) *sampler {
	k := cfg.Exemplars
	if k <= 0 {
		return nil
	}
	return &sampler{
		seed: cfg.Seed, topo: cfg.Tiers,
		slow: keepSet{k: k}, shed: keepSet{k: k}, migrated: keepSet{k: k},
		faulted: keepSet{k: k}, baseline: keepSet{k: k},
	}
}

// rec hands out a pooled record for a freshly issued job.
func (sp *sampler) rec(id int64, in intent) *jobRec {
	if sp == nil {
		return nil
	}
	var r *jobRec
	if n := len(sp.free); n > 0 {
		r = sp.free[n-1]
		sp.free = sp.free[:n-1]
		marks := r.marks[:0]
		*r = jobRec{marks: marks}
	} else {
		r = &jobRec{}
	}
	r.id = id
	r.client = in.ci
	r.server = -1
	r.tm = in.tm
	r.mem = in.mem
	r.decide = in.t
	return r
}

// observe feeds one completion into the retention sets and emits the
// job's cheap KJob summary. Runs in the serial machine core, so its
// order — and therefore the live summary stream — is engine-invariant.
func (sp *sampler) observe(r *jobRec, tr *obs.Tracer) {
	if sp == nil || r == nil {
		return
	}
	r.final = true
	tr.Emit(r.rootEvent())
	lat := int64(r.done - r.decide)
	sp.drop(sp.slow.add(lat, -r.id, r))
	if r.out == outShed {
		sp.drop(sp.shed.add(lat, -r.id, r))
	}
	if r.migrated {
		sp.drop(sp.migrated.add(lat, -r.id, r))
	}
	if r.faulted {
		sp.drop(sp.faulted.add(lat, -r.id, r))
	}
	// Baseline reservoir: an unbiased K-sample, picked by the smallest
	// per-entity hashes (a bottom-k sketch over entityStream draws) —
	// order-invariant and mergeable, unlike a classic reservoir walk.
	h := entityStream(sp.seed, uint64(r.id))
	sp.drop(sp.baseline.add(-int64(h.next()>>1), -r.id, r))
	sp.drop(r) // recycle immediately when nothing retained it
}

// drop returns an evicted rec to the pool once no set references it.
func (sp *sampler) drop(r *jobRec) {
	if r == nil || r.refs > 0 || !r.final {
		return
	}
	sp.free = append(sp.free, r)
}

// category membership of a retained rec, for the Result exemplar summary.
func (sp *sampler) categories(r *jobRec) []string {
	var cats []string
	in := func(s *keepSet) bool {
		for _, e := range s.es {
			if e.rec == r {
				return true
			}
		}
		return false
	}
	if in(&sp.slow) {
		cats = append(cats, "slow")
	}
	if in(&sp.shed) {
		cats = append(cats, "shed")
	}
	if in(&sp.migrated) {
		cats = append(cats, "migrated")
	}
	if in(&sp.faulted) {
		cats = append(cats, "faulted")
	}
	if in(&sp.baseline) {
		cats = append(cats, "baseline")
	}
	return cats
}

// retained returns the union of the retention sets, sorted by job id.
func (sp *sampler) retained() []*jobRec {
	seen := make(map[int64]*jobRec)
	for _, s := range []*keepSet{&sp.slow, &sp.shed, &sp.migrated, &sp.faulted, &sp.baseline} {
		for _, e := range s.es {
			seen[e.rec.id] = e.rec
		}
	}
	out := make([]*jobRec, 0, len(seen))
	for _, r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// flush emits the retained exemplars' complete span trees into the
// bounded tracer ring — root KJob plus one KJobSeg per mark interval —
// and returns the Result exemplar summaries. The ring keeps newest, so
// flushing last guarantees the exemplar trees survive whatever the live
// stream dropped, while total trace memory stays at the ring bound.
func (sp *sampler) flush(tr *obs.Tracer) []Exemplar {
	if sp == nil {
		return nil
	}
	recs := sp.retained()
	out := make([]Exemplar, 0, len(recs))
	for _, r := range recs {
		tr.Emit(r.rootEvent())
		ex := Exemplar{
			Job: r.id, Client: r.client, Server: r.server,
			Outcome: outName[r.out], LatencyPS: int64(r.done - r.decide),
			Missed: r.missed, Categories: sp.categories(r),
		}
		if r.tier == tierEdge {
			ex.Tier = "edge"
		} else if r.tier == tierCloud {
			ex.Tier = "cloud"
		}
		prev := r.decide
		for _, mk := range r.marks {
			if tr != nil {
				tr.Emit(obs.Event{
					Time: prev, Dur: mk.t - prev,
					Kind: obs.KJobSeg, Track: segTrack(mk.seg, mk.si, sp.topo),
					Name: segName[mk.seg], Job: r.id,
					A0: int64(r.client), A1: int64(mk.si),
				})
			}
			ex.Segments = append(ex.Segments, ExSegment{
				Name: segName[mk.seg], PS: int64(mk.t - prev), Server: mk.si})
			prev = mk.t
		}
		out = append(out, ex)
	}
	return out
}

// Exemplar is one retained job in the Result: its identity, outcome,
// retention categories and the exact critical-path segments. Segments sum
// to LatencyPS — the machine-readable form of the analyzer's identity.
type Exemplar struct {
	Job        int64       `json:"job"`
	Client     int32       `json:"client"`
	Server     int32       `json:"server"` // final server, -1 local
	Tier       string      `json:"tier,omitempty"`
	Outcome    string      `json:"outcome"`
	Missed     bool        `json:"missed,omitempty"`
	LatencyPS  int64       `json:"latency_ps"`
	Categories []string    `json:"categories"`
	Segments   []ExSegment `json:"segments"`
}

// ExSegment is one critical-path interval of an exemplar.
type ExSegment struct {
	Name   string `json:"name"`
	PS     int64  `json:"ps"`
	Server int32  `json:"server"` // -1 when no server involved
}
