package fleet

import (
	"cmp"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/simtime"
)

// TestEventOrderTieBreak pins the intrinsic total order: equal-time events
// pop by (lane, seq), independent of push order. The old heap broke ties
// by a global insertion counter, which made the schedule an artifact of
// who pushed first — impossible to reproduce from two queues merged.
func TestEventOrderTieBreak(t *testing.T) {
	q := newSchedQueue(0, 4)
	at := 100 * simtime.Millisecond
	// Push a late lane-0 event first (it takes lane 0's seq 0), then the
	// tie group in descending lane order, then an early lane-2 event.
	// Within the tie group the pops must come back sorted by (lane, seq) —
	// the reverse of insertion order across lanes.
	q.sched(200*simtime.Millisecond, evReady, 0, 0, nil)
	for lane := int32(3); lane >= 0; lane-- {
		q.sched(at, evReady, lane, 0, nil)
		q.sched(at, evArrive, lane, 0, nil)
	}
	q.sched(50*simtime.Millisecond, evReady, 2, 0, nil)

	type key struct {
		t    simtime.PS
		lane int32
		seq  int32
	}
	var got []key
	for !q.empty() {
		ev := q.pop()
		got = append(got, key{ev.t, ev.lane, ev.seq})
	}
	want := []key{
		{50 * simtime.Millisecond, 2, 2},
		{at, 0, 1}, {at, 0, 2},
		{at, 1, 0}, {at, 1, 1},
		{at, 2, 0}, {at, 2, 1},
		{at, 3, 0}, {at, 3, 1},
		{200 * simtime.Millisecond, 0, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pop %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReadyEvSize pins the ready queue's entry at 16 bytes: four children
// to a cache line and a hundred thousand pending clients inside L2 are
// what the queue was split off the event heap for.
func TestReadyEvSize(t *testing.T) {
	if got := unsafe.Sizeof(readyEv{}); got != 16 {
		t.Errorf("readyEv is %d bytes, want 16", got)
	}
}

// TestReadyQueueMatchesSort: under random interleavings of pushes and pops,
// with instants drawn from so few values that most pops break a tie, the
// queue always yields the (t, lane) minimum of what is pending.
func TestReadyQueueMatchesSort(t *testing.T) {
	const lanes = 300
	r := entityStream(21, 0)
	q := newReadyQueue(lanes)
	var pending []readyEv
	free := make([]int32, lanes) // lanes with no pending event
	for i := range free {
		free[i] = int32(i)
	}
	pop := func() {
		slices.SortFunc(pending, func(a, b readyEv) int {
			return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.lane, b.lane))
		})
		if top := q.top(); top != pending[0] {
			t.Fatalf("top is (%v, %d), the pending minimum is (%v, %d)", top.t, top.lane, pending[0].t, pending[0].lane)
		}
		if got := q.pop(); got != pending[0] {
			t.Fatalf("popped (%v, %d), the pending minimum is (%v, %d)", got.t, got.lane, pending[0].t, pending[0].lane)
		}
		free = append(free, pending[0].lane)
		pending = pending[1:]
	}
	for op := 0; op < 20000; op++ {
		// Push-heavy until the lanes fill, so the heap is exercised at
		// every depth it can reach.
		if len(free) > 0 && (len(pending) == 0 || r.intn(5) < 3) {
			k := r.intn(len(free))
			lane := free[k]
			free[k] = free[len(free)-1]
			free = free[:len(free)-1]
			at := simtime.PS(r.intn(12)) * simtime.Millisecond
			q.push(at, lane)
			pending = append(pending, readyEv{t: at, lane: lane})
		} else {
			pop()
		}
		if q.len() != len(pending) {
			t.Fatalf("queue holds %d events, %d are pending", q.len(), len(pending))
		}
	}
	for len(pending) > 0 {
		pop()
	}
	if !q.empty() {
		t.Errorf("queue still holds %d events after every pending one popped", q.len())
	}
}

// TestReadyQueueOverflowPanics: one more pending ready event than lanes
// means a client holds two, which the (t, lane) order cannot tell apart —
// the queue must refuse rather than grow.
func TestReadyQueueOverflowPanics(t *testing.T) {
	q := newReadyQueue(2)
	q.push(1, 0)
	q.push(2, 1)
	defer func() {
		if recover() == nil {
			t.Error("a third ready event on two lanes did not panic")
		}
	}()
	q.push(3, 0)
}

// TestEntityStreamIndependence guards the satellite RNG fix: the old
// derivation xor-ed the seed with small multiples of the entity id, which
// correlated neighboring clients' draw sequences. Streams must now differ
// pairwise even for adjacent ids and tiny seeds, and the same (seed, id)
// must reproduce exactly.
func TestEntityStreamIndependence(t *testing.T) {
	draw := func(seed, id uint64) [4]uint64 {
		r := entityStream(seed, id)
		var out [4]uint64
		for i := range out {
			out[i] = r.next()
		}
		return out
	}
	if draw(1, 7) != draw(1, 7) {
		t.Fatal("entityStream is not reproducible")
	}
	seen := map[[4]uint64]uint64{}
	for id := uint64(0); id < 1000; id++ {
		d := draw(1, id)
		if prev, dup := seen[d]; dup {
			t.Fatalf("entities %d and %d share a draw sequence", prev, id)
		}
		seen[d] = id
	}
	if draw(1, 3) == draw(2, 3) {
		t.Error("seeds 1 and 2 give entity 3 the same stream")
	}
}
