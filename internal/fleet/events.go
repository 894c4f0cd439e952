package fleet

import (
	"math/bits"
	"slices"

	"repro/internal/simtime"
)

// Event kinds of the discrete-event state machine. The engine queues ready
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
// engine queues them as bare (t, lane) entries (readyQueue) and only
// server lanes carry events. The engine and the single-heap test oracle
// assign identical keys to identical logical events, so merging the two
// queues replays the one heap's exact total order — and equal-time events
// tie-break by (lane, seq), not by whichever heap insertion happened
// first, so the schedule is a property of the configuration.
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

// newLaneSeq counts from zero on every lane of seqs, one entry a lane.
func newLaneSeq(base int32, seqs []int32) laneSeq {
	clear(seqs)
	return laneSeq{base: base, seqs: seqs}
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
// the engine's scheduling front-end for its server lanes.
type schedQueue struct {
	eventQueue
	seq laneSeq
}

// newSchedQueue builds the queue of lanes [base, base+lanes) over rm's
// event heap and ordinals.
func newSchedQueue(base int32, lanes int, rm *runMem) *schedQueue {
	return &schedQueue{
		eventQueue: eventQueue{h: resize(rm.events, lanes)[:0]},
		seq:        newLaneSeq(base, resize(rm.seqs, lanes)),
	}
}

func (q *schedQueue) sched(t simtime.PS, kind uint8, lane, si int32, j *job) {
	q.push(event{t: t, lane: lane, seq: q.seq.next(lane), si: si, kind: kind, j: j})
}

// readyEv is one pending client ready event: the instant and the client
// lane, nothing else. A client lane holds at most one pending event — its
// ready event; while its one request is in flight the arrive/finish events
// live on server lanes — so (t, lane) is already a total order over pending
// ready events and the push ordinal, job pointer, server index and kind an
// event carries would be dead weight. It is the entry of the ready queue's
// run buffer.
type readyEv struct {
	t    simtime.PS
	lane int32
	_    int32
}

// lt is 1 if a sorts before b in the event order (t, lane, seq) restricted
// to lanes that never hold two events, else 0, computed without a branch.
// It is the borrow out of the 128-bit subtraction (a.t:a.lane) -
// (b.t:b.lane), t's sign bit flipped so that the unsigned borrow follows
// the signed order (lanes are never negative).
func (a readyEv) lt(b readyEv) uint64 {
	const sign = 1 << 63
	_, borrow := bits.Sub64(uint64(uint32(a.lane)), uint64(uint32(b.lane)), 0)
	_, borrow = bits.Sub64(uint64(a.t)^sign, uint64(b.t)^sign, borrow)
	return borrow
}

func (a readyEv) before(b readyEv) bool { return a.lt(b) != 0 }

// compareReady is the same order as a comparison, for slices.SortFunc.
func compareReady(a, b readyEv) int { return int(b.lt(a)) - int(a.lt(b)) }

// readyQueue is a calendar queue (Brown, CACM 1988) of ready events,
// threaded through the lanes. The engine merges it with the server-event
// queue as two sorted streams; client lanes sort before every server lane,
// so the merge takes a ready event whenever its instant is not later.
//
// Time is cut into buckets 1<<shift ps wide, and a ring of slots holds the
// buckets after the one being consumed, bucket b in slot b&mask. A lane
// holds at most one pending event, so the storage is per lane: the instant
// in the lane's client record (clientState.at), the link to the next lane
// of the same bucket in next. A slot is the head of such a list, and a
// bitmap marks the slots that hold one. A push is three stores. When the
// run buffer — the bucket being consumed, sorted — is exhausted, the
// cursor moves to the next occupied slot, walks its list into the buffer
// and sorts it. The walk reads each lane's instant from its record, so it
// also loads the line issueReady reads next.
//
// next stays an array of its own: the walk is a chain of dependent loads
// through it, and at 4 B a lane the chain stays in few lines. Folding it
// into the record made the walk three times slower.
//
// An event in or before the bucket being consumed (the engine pushes one
// whenever a server event at an earlier instant follows a peek) is a
// sorted insert into the run. An event a whole ring or more past the
// cursor goes on one far list, which spills into the ring once the cursor
// reaches its earliest bucket. So every pending event is in exactly one
// place: the run (buckets up to the cursor's), the ring (the slots-1
// buckets after it) or the far list (later), and pop always takes the run's
// head.
//
// A second pending event on one lane would make the (t, lane) order
// ambiguous: it panics, always, like finishRun's slot-accounting checks.
type readyQueue struct {
	cl   []clientState // per lane: the record whose at is the pending instant
	next []int32       // per lane: the next lane of its list, listEnd, or laneFree
	head []int32       // per slot: the first lane of its bucket, or listEnd
	occ  []uint64      // bit s: slot s holds a list

	shift uint  // bucket(t) = t >> shift
	mask  int64 // slots - 1, slots a power of two
	cur   int64 // the bucket being consumed

	run []readyEv // sorted; run[pos:] are every pending event of bucket ≤ cur
	pos int

	far    int32      // lanes pushed a ring or more past the cursor, listEnd if none
	farMin simtime.PS // the earliest instant on far

	n     int
	paths readyPaths
}

// readyPaths counts how often the queue took each of its rare paths; the
// property tests require every one of them to have run.
type readyPaths struct {
	inserts int // pushes into the bucket being consumed
	early   int // of those, pushes into a bucket before it
	far     int // pushes onto the far list
	spills  int // far-list spills into the ring
	wraps   int // cursor moves that wrap past the ring's last slot
	gaps    int // whole bitmap words of empty slots skipped
	sorts   int // buckets too large for insertion sort
}

const (
	listEnd  int32 = -1 // no further lane
	laneFree int32 = -2 // next: the lane holds no pending event
)

// bucketFill is how many pending events a bucket is sized to hold, were
// they spread evenly over the ring; small enough that insertion sort is
// the right sort, large enough that the cursor rarely meets an empty slot.
const bucketFill = 8

// insertionSortMax is the largest bucket insertion sort takes.
const insertionSortMax = 24

// newReadyQueue sizes a calendar for one lane per client record, each
// pending event at most horizon past the instant being consumed when it is
// pushed (later ones are correct but take the far list). Buckets are about
// bucketFill events wide, and the ring is a power of two of at least two
// slots that covers the horizon — unless that takes more than one slot per
// two lanes, when buckets widen instead, so the queue's own arrays stay
// within 8 bytes a lane: 4 of next, at most 2 of ring, and the run buffer.
// The arrays are rm's.
func newReadyQueue(cl []clientState, horizon simtime.PS, rm *runMem) *readyQueue {
	lanes := len(cl)
	h := uint64(max(horizon, 1))
	maxSlots := 2
	for maxSlots*4 <= lanes {
		maxSlots *= 2
	}
	width := float64(h) * bucketFill / float64(lanes)
	var shift uint
	for shift < 62 && float64(uint64(2)<<shift) <= width {
		shift++
	}
	slots := 2
	for shift < 62 {
		// A push at most horizon past an instant of bucket cur lands at most
		// h>>shift + 1 buckets past it, and the ring holds mask of them.
		need := h>>shift + 2
		for uint64(slots) < need && slots < maxSlots {
			slots *= 2
		}
		if uint64(slots) >= need {
			break
		}
		shift++
	}
	q := &readyQueue{
		cl:    cl,
		next:  resize(rm.next, lanes),
		head:  resize(rm.head, slots),
		occ:   resize(rm.occ, (slots+63)/64),
		shift: shift,
		mask:  int64(slots - 1),
		run:   resize(rm.run, 4*bucketFill)[:0],
		far:   listEnd,
	}
	for i := range q.next {
		q.next[i] = laneFree
	}
	for i := range q.head {
		q.head[i] = listEnd
	}
	clear(q.occ)
	return q
}

func (q *readyQueue) len() int    { return q.n }
func (q *readyQueue) empty() bool { return q.n == 0 }

// top is the earliest pending event. The queue must not be empty.
func (q *readyQueue) top() readyEv {
	if q.pos == len(q.run) {
		q.advance()
	}
	return q.run[q.pos]
}

func (q *readyQueue) pop() readyEv {
	ev := q.top()
	q.pos++
	q.n--
	q.next[ev.lane] = laneFree
	return ev
}

func (q *readyQueue) push(t simtime.PS, lane int32) {
	if q.next[lane] != laneFree {
		panic("fleet: a client lane holds two pending ready events")
	}
	q.n++
	q.cl[lane].at = t
	b := int64(t >> q.shift)
	switch d := b - q.cur; {
	case d <= 0:
		q.insertRun(readyEv{t: t, lane: lane}, d < 0)
	case d <= q.mask:
		q.link(b&q.mask, lane)
	default:
		q.linkFar(t, lane)
		q.paths.far++
	}
}

// link puts lane on ring slot s's list.
func (q *readyQueue) link(s int64, lane int32) {
	q.next[lane] = q.head[s]
	q.head[s] = lane
	q.occ[s>>6] |= 1 << (s & 63)
}

func (q *readyQueue) linkFar(t simtime.PS, lane int32) {
	if q.far == listEnd || t < q.farMin {
		q.farMin = t
	}
	q.next[lane] = q.far
	q.far = lane
}

// insertRun is a push into the bucket being consumed, or before it: a
// sorted insert after the run's cursor.
func (q *readyQueue) insertRun(ev readyEv, early bool) {
	q.next[ev.lane] = listEnd
	if q.pos == len(q.run) {
		q.run, q.pos = q.run[:0], 0
	}
	r := append(q.run, ev)
	i := len(r) - 1
	for i > q.pos && ev.before(r[i-1]) {
		r[i] = r[i-1]
		i--
	}
	r[i] = ev
	q.run = r
	q.paths.inserts++
	if early {
		q.paths.early++
	}
}

// advance moves the cursor to the next bucket that holds an event and sorts
// that bucket into the run. The run is exhausted and the queue is not
// empty.
func (q *readyQueue) advance() {
	q.run, q.pos = q.run[:0], 0
	b, ok := q.nextBucket()
	if q.far != listEnd && (!ok || int64(q.farMin>>q.shift) <= b) {
		b = int64(q.farMin >> q.shift)
		q.spill(b)
	}
	q.cur = b
	s := b & q.mask
	r := q.run
	for l := q.head[s]; l != listEnd; l = q.next[l] {
		r = append(r, readyEv{t: q.cl[l].at, lane: l})
	}
	q.head[s] = listEnd
	q.occ[s>>6] &^= 1 << (s & 63)
	if len(r) <= insertionSortMax {
		for i := 1; i < len(r); i++ {
			ev, j := r[i], i
			for ; j > 0 && ev.before(r[j-1]); j-- {
				r[j] = r[j-1]
			}
			r[j] = ev
		}
	} else {
		slices.SortFunc(r, compareReady)
		q.paths.sorts++
	}
	q.run = r
}

// nextBucket is the first bucket after the cursor's whose ring slot holds a
// list, found through the bitmap; false if the ring is empty. The cursor's
// own slot is always empty: its events are in the run.
func (q *readyQueue) nextBucket() (int64, bool) {
	start := (q.cur + 1) & q.mask
	w := start >> 6
	word := q.occ[w] &^ (1<<(start&63) - 1)
	// The last word read is start's own again, whole: the slots before
	// start are the end of the ring.
	for i := 0; word == 0; i++ {
		if i == len(q.occ) {
			return 0, false
		}
		if i > 0 {
			q.paths.gaps++
		}
		if w++; w == int64(len(q.occ)) {
			w = 0
		}
		word = q.occ[w]
	}
	s := w<<6 | int64(bits.TrailingZeros64(word))
	if s < start {
		q.paths.wraps++
	}
	return q.cur + 1 + (s-start)&q.mask, true
}

// spill moves every far-list event within a ring of bucket cur, the
// cursor's next, onto the ring, and keeps the rest on the far list.
func (q *readyQueue) spill(cur int64) {
	l := q.far
	q.far = listEnd
	for l != listEnd {
		nx := q.next[l]
		if t := q.cl[l].at; int64(t>>q.shift)-cur <= q.mask {
			q.link(int64(t>>q.shift)&q.mask, l)
		} else {
			q.linkFar(t, l)
		}
		l = nx
	}
	q.paths.spills++
}
