package fleet

import (
	"math/bits"

	"repro/internal/simtime"
)

// Event kinds of the discrete-event state machine. The engines queue ready
// events as readyEv entries; evReady tags them only in the single-heap
// test oracle.
const (
	evReady  uint8 = iota // a client is ready to issue its next request
	evArrive              // an offload request reaches its server
	evFinish              // a server slot completes a job
	evCrash               // a scheduled server crash: in-flight state is lost
	evDrain               // a scheduled drain: the server stops taking work
)

// event is one scheduled occurrence. Its ordering key (t, lane, seq) is
// intrinsic to the simulation rather than an artifact of a global push
// counter: the lane is the entity the event belongs to (client id for
// ready events, clients+serverIndex for server-side events) and seq is
// the per-lane push ordinal. Client lanes never hold two events, so the
// engines queue them as bare (t, lane) entries (readyQueue) and only
// server lanes carry events. Both engines assign identical keys to
// identical logical events, which is what lets the sharded engine merge
// per-shard streams back into the sequential engine's exact total order —
// and why equal-time events tie-break by (lane, seq), not by whichever
// heap insertion happened first.
type event struct {
	t    simtime.PS
	j    *job
	lane int32
	seq  int32
	si   int32
	kind uint8
}

// before is the total event order (t, lane, seq).
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

// laneSeq hands out per-lane push ordinals for a contiguous lane range.
type laneSeq struct {
	base int32
	seqs []int32
}

func newLaneSeq(base int32, lanes int) laneSeq {
	return laneSeq{base: base, seqs: make([]int32, lanes)}
}

func (l *laneSeq) next(lane int32) int32 {
	s := l.seqs[lane-l.base]
	l.seqs[lane-l.base] = s + 1
	return s
}

// eventQueue is a plain binary min-heap over the (t, lane, seq) order.
// It is hand-rolled rather than container/heap: value-typed events avoid
// the interface boxing that allocates on every push, which matters when
// the pending set is hundreds of thousands of events.
type eventQueue struct {
	h []event
}

func (q *eventQueue) len() int    { return len(q.h) }
func (q *eventQueue) top() *event { return &q.h[0] }
func (q *eventQueue) empty() bool { return len(q.h) == 0 }

func (q *eventQueue) push(ev event) {
	q.h = append(q.h, ev)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.h[i].before(&q.h[p]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := q.h
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.h = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return ev
}

func (q *eventQueue) siftDown(i int) {
	h := q.h
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// schedQueue is an eventQueue that assigns lane ordinals at push time —
// both engines' scheduling front-end for their server lanes.
type schedQueue struct {
	eventQueue
	seq laneSeq
}

func newSchedQueue(base int32, lanes int) *schedQueue {
	return &schedQueue{eventQueue: eventQueue{h: make([]event, 0, lanes)}, seq: newLaneSeq(base, lanes)}
}

func (q *schedQueue) sched(t simtime.PS, kind uint8, lane, si int32, j *job) {
	q.push(event{t: t, lane: lane, seq: q.seq.next(lane), si: si, kind: kind, j: j})
}

// readyEv is one pending client ready event: the instant and the client
// lane, nothing else. A client lane holds at most one pending event — its
// ready event; while its one request is in flight the arrive/finish events
// live on server lanes — so (t, lane) is already a total order over pending
// ready events and the push ordinal, job pointer, server index and kind an
// event carries would be dead weight. Half the size keeps a hundred
// thousand pending entries inside L2.
type readyEv struct {
	t    simtime.PS
	lane int32
	_    int32
}

// lt is 1 if a sorts before b in the event order (t, lane, seq) restricted
// to lanes that never hold two events, else 0, computed without a branch:
// sibling comparisons in a heap are coin flips, and the mispredictions cost
// more than the cache misses did. It is the borrow out of the 128-bit
// subtraction (a.t:a.lane) - (b.t:b.lane), t's sign bit flipped so that the
// unsigned borrow follows the signed order (lanes are never negative).
func (a readyEv) lt(b readyEv) uint64 {
	const sign = 1 << 63
	_, borrow := bits.Sub64(uint64(uint32(a.lane)), uint64(uint32(b.lane)), 0)
	_, borrow = bits.Sub64(uint64(a.t)^sign, uint64(b.t)^sign, borrow)
	return borrow
}

func (a readyEv) before(b readyEv) bool { return a.lt(b) != 0 }

// readyQueue is a 4-ary min-heap of ready events: the four children of a
// node are 64 contiguous bytes, and the tree over the same entries is half
// as deep as a binary one. Both engines merge it with a server-event queue
// as two sorted streams; client lanes sort before every server lane, so the
// merge takes a ready event whenever its instant is not later.
//
// Capacity is fixed at the lane count. A push beyond it means some client
// holds two pending events, which would make the (t, lane) order ambiguous:
// that panics, always, like finishRun's slot-accounting checks.
type readyQueue struct {
	h []readyEv
}

func newReadyQueue(lanes int) *readyQueue {
	return &readyQueue{h: make([]readyEv, readyRoot, readyRoot+lanes)}
}

// readyRoot is the root's index in the backing array: with three unused
// entries in front, the children of the node at p are 4(p-2) … 4(p-2)+3, a
// group that starts on a 64-byte boundary whenever the array does (Go
// page-aligns every allocation large enough for this to matter).
const readyRoot = 3

func (q *readyQueue) len() int     { return len(q.h) - readyRoot }
func (q *readyQueue) top() readyEv { return q.h[readyRoot] }
func (q *readyQueue) empty() bool  { return len(q.h) == readyRoot }

func (q *readyQueue) push(t simtime.PS, lane int32) {
	i := len(q.h)
	if i == cap(q.h) {
		panic("fleet: more pending ready events than client lanes")
	}
	h := q.h[:i+1]
	ev := readyEv{t: t, lane: lane}
	for i > readyRoot {
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

func (q *readyQueue) pop() readyEv {
	h := q.h
	top := h[readyRoot]
	n := len(h) - 1
	ev := h[n]
	h = h[:n]
	q.h = h
	if n == readyRoot {
		return top
	}
	// Sift the hole at the root down to where the former last entry fits.
	i := readyRoot
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

// maxPS is the +infinity sentinel of the simulated clock.
const maxPS = simtime.PS(1<<63 - 1)
