package fleet

import (
	"repro/internal/simtime"
)

// Event kinds of the discrete-event state machine.
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
// the per-lane push ordinal. Both engines assign identical keys to
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
// the scheduling front-end used by the sequential engine (all lanes) and
// by each shard (its own client lanes).
type schedQueue struct {
	eventQueue
	seq laneSeq
}

// newSchedQueue starts the heap at one event per lane, about its working
// size from the first wave on: a client has one pending event at a time —
// its ready event, or the arrive/finish of its one request in flight.
func newSchedQueue(base int32, lanes int) *schedQueue {
	return &schedQueue{eventQueue: eventQueue{h: make([]event, 0, lanes)}, seq: newLaneSeq(base, lanes)}
}

func (q *schedQueue) sched(t simtime.PS, kind uint8, lane, si int32, j *job) {
	q.push(event{t: t, lane: lane, seq: q.seq.next(lane), si: si, kind: kind, j: j})
}

// maxPS is the +infinity sentinel of the simulated clock.
const maxPS = simtime.PS(1<<63 - 1)

// windowQueue is the sharded coordinator's two-tier scheduler: a small
// heap holds only the events due inside the current conservative window,
// everything later sits in an unordered overflow buffer that is swept
// once per window. The sequential engine's single heap spans every
// pending event (~one per client), so each operation walks a
// cache-hostile log N path; here the heap stays window-sized and
// L2-resident, and the sweep touches each far-future event once per
// window instead of once per heap level. Ordering is unaffected: events
// enter the heap before their window is processed, and the heap resolves
// the full (t, lane, seq) key.
type windowQueue struct {
	cur     eventQueue
	future  []event
	fmin    simtime.PS
	horizon simtime.PS
	seq     laneSeq
}

func newWindowQueue(base int32, lanes int) *windowQueue {
	return &windowQueue{fmin: maxPS, seq: newLaneSeq(base, lanes)}
}

func (q *windowQueue) sched(t simtime.PS, kind uint8, lane, si int32, j *job) {
	ev := event{t: t, lane: lane, seq: q.seq.next(lane), si: si, kind: kind, j: j}
	if t < q.horizon {
		q.cur.push(ev)
		return
	}
	q.future = append(q.future, ev)
	if t < q.fmin {
		q.fmin = t
	}
}

// advance opens the window ending at horizon: due overflow events move
// into the heap (swap-removal; their relative order is restored by the
// heap's full key).
func (q *windowQueue) advance(horizon simtime.PS) {
	q.horizon = horizon
	if q.fmin >= horizon {
		return
	}
	fmin := maxPS
	f := q.future
	for i := 0; i < len(f); {
		if f[i].t < horizon {
			q.cur.push(f[i])
			f[i] = f[len(f)-1]
			f = f[:len(f)-1]
			continue
		}
		if f[i].t < fmin {
			fmin = f[i].t
		}
		i++
	}
	q.future = f
	q.fmin = fmin
}

// minPending is the earliest event anywhere in the queue (maxPS if empty).
func (q *windowQueue) minPending() simtime.PS {
	min := q.fmin
	if !q.cur.empty() && q.cur.top().t < min {
		min = q.cur.top().t
	}
	return min
}

func (q *windowQueue) pending() bool { return !q.cur.empty() || len(q.future) > 0 }
