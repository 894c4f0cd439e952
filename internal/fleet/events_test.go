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
	q := newSchedQueue(0, 4, new(runMem))
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

// TestReadyEvSize pins the ready queue's run-buffer entry at 16 bytes,
// (t, lane) and padding: the bucket sorts move whole entries, and the
// queue's storage budget (TestReadyQueueStorageBound) leaves the run buffer
// only what the per-lane arrays and the ring do not use.
func TestReadyEvSize(t *testing.T) {
	if got := unsafe.Sizeof(readyEv{}); got != 16 {
		t.Errorf("readyEv is %d bytes, want 16", got)
	}
}

// TestClientStateSize pins the client record at 24 bytes: the pending
// instant, the stream, the request counter and the profile index. It is the
// one per-client array the event loop walks besides the ready queue's links,
// so every byte added here is a million bytes on the fleetscale cell.
func TestClientStateSize(t *testing.T) {
	if got := unsafe.Sizeof(clientState{}); got != 24 {
		t.Errorf("clientState is %d bytes, want 24", got)
	}
}

// TestReadyQueueMatchesSort: under random interleavings of pushes and pops
// the calendar queue always yields the (t, lane) minimum of what is
// pending, and at the end the rest in sorted order. Fill phases alternate
// with drain phases, so the ring is by turns crowded and nearly empty, and
// instants are drawn to reach every path the queue has: few instants on a
// quarter-bucket grid (ties, pushes into the bucket being consumed or
// before it), anywhere on the ring, past it (the far list), and — after a
// peek has moved the cursor on — before the top. The queue's path counters
// and a count of tied pops must show each case ran.
func TestReadyQueueMatchesSort(t *testing.T) {
	const lanes = 1024
	r := entityStream(21, 0)
	q := newReadyQueue(make([]clientState, lanes), 2*simtime.Second, new(runMem))
	width := simtime.PS(1) << q.shift
	ring := width * simtime.PS(q.mask)
	if len(q.occ) < 3 {
		t.Fatalf("ring of %d slots: too small for gaps of a whole bitmap word", q.mask+1)
	}
	var pending []readyEv
	free := make([]int32, lanes) // lanes with no pending event
	for i := range free {
		free[i] = int32(i)
	}
	order := func(a, b readyEv) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.lane, b.lane))
	}
	var clock simtime.PS // the last popped instant
	ties := 0
	pop := func(want readyEv) {
		if top := q.top(); top != want {
			t.Fatalf("top is (%v, %d), the pending minimum is (%v, %d)", top.t, top.lane, want.t, want.lane)
		}
		if got := q.pop(); got != want {
			t.Fatalf("popped (%v, %d), the pending minimum is (%v, %d)", got.t, got.lane, want.t, want.lane)
		}
		if want.t == clock {
			ties++
		}
		clock = want.t
		free = append(free, want.lane)
		i := slices.Index(pending, want)
		pending[i] = pending[len(pending)-1]
		pending = pending[:len(pending)-1]
	}
	for op := 0; op < 60_000; op++ {
		pushes := 4 // of 5 ops while filling
		if (op/5000)%2 == 1 {
			pushes = 1
		}
		if len(free) == 0 || (len(pending) > 0 && r.intn(5) >= pushes) {
			pop(slices.MinFunc(pending, order))
			continue
		}
		k := r.intn(len(free))
		lane := free[k]
		free[k] = free[len(free)-1]
		free = free[:len(free)-1]
		var at simtime.PS
		switch c := r.intn(20); {
		case c < 8:
			at = clock/(width/4)*(width/4) + simtime.PS(r.intn(12))*(width/4)
		case c < 16:
			at = clock + r.rangePS(0, ring)
		case c < 18:
			at = clock + ring + r.rangePS(0, 3*ring)
		default:
			at = clock
			if len(pending) > 0 {
				at += r.rangePS(0, q.top().t-clock)
			}
		}
		q.push(at, lane)
		pending = append(pending, readyEv{t: at, lane: lane})
		if q.len() != len(pending) {
			t.Fatalf("queue holds %d events, %d are pending", q.len(), len(pending))
		}
	}
	slices.SortFunc(pending, order)
	for _, want := range slices.Clone(pending) {
		pop(want)
	}
	if !q.empty() {
		t.Errorf("queue still holds %d events after every pending one popped", q.len())
	}
	p := q.paths
	for _, c := range []struct {
		name string
		n    int
	}{
		{"tied pops", ties},
		{"pushes into the bucket being consumed", p.inserts},
		{"pushes before the bucket being consumed", p.early},
		{"far-list pushes", p.far},
		{"far-list spills", p.spills},
		{"ring wrap-arounds", p.wraps},
		{"empty bitmap words skipped", p.gaps},
		{"buckets past insertion sort", p.sorts},
	} {
		if c.n == 0 {
			t.Errorf("no %s: the test missed that path", c.name)
		}
	}
	t.Logf("%d tied pops, paths %+v", ties, p)
}

// TestReadyQueueOverflowPanics: a second pending ready event on one lane
// is ambiguous in the (t, lane) order — the queue must refuse it wherever
// the first one waits (the run, the ring, the far list) and however full
// the queue is.
func TestReadyQueueOverflowPanics(t *testing.T) {
	mustPanic := func(name string, q *readyQueue, at simtime.PS, lane int32) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: a second ready event on lane %d did not panic", name, lane)
			}
		}()
		q.push(at, lane)
	}
	full := newReadyQueue(make([]clientState, 2), simtime.Second, new(runMem))
	full.push(1, 0)
	full.push(2, 1)
	mustPanic("full", full, 3, 0)

	for _, first := range []struct {
		name string
		at   simtime.PS
	}{{"run", 0}, {"ring", simtime.Second / 2}, {"far", 10 * simtime.Second}} {
		q := newReadyQueue(make([]clientState, 64), simtime.Second, new(runMem))
		q.push(first.at, 5)
		mustPanic(first.name, q, first.at, 5)
	}
}

// TestReadyQueueStorageBound: at the overload cell's sizing the calendar's
// own backing arrays — the lane links, ring, bitmap and the run buffer at
// its high-water mark after a turnover of holds — stay within 8 bytes a
// lane plus a constant, so neither alloc_mb nor peak_rss_mb creeps up
// through the ring. The instants live in the client records, which the
// queue does not own and which TestClientStateSize holds to 24 bytes.
func TestReadyQueueStorageBound(t *testing.T) {
	const slack = 4 << 10
	for _, lanes := range []int{64, 100_000, 1_000_000} {
		w := DefaultConfig(lanes, 16, EstAware).Workload
		q := newReadyQueue(make([]clientState, lanes), simtime.PS(w.horizon()), new(runMem))
		r := entityStream(3, uint64(lanes))
		for lane := 0; lane < lanes; lane++ {
			q.push(r.rangePS(w.ThinkMin, w.ThinkMax), int32(lane))
		}
		for i := 0; i < lanes; i++ {
			ev := q.pop()
			q.push(ev.t+r.rangePS(w.TmMin, w.TmMax)+r.rangePS(w.ThinkMin, w.ThinkMax), ev.lane)
		}
		bytes := cap(q.next)*int(unsafe.Sizeof(q.next[0])) +
			cap(q.head)*int(unsafe.Sizeof(q.head[0])) + cap(q.occ)*int(unsafe.Sizeof(q.occ[0])) +
			cap(q.run)*int(unsafe.Sizeof(q.run[0]))
		if bound := 8*lanes + slack; bytes > bound {
			t.Errorf("%d lanes: the queue holds %d bytes, over 8 B a lane plus %d (%d)", lanes, bytes, slack, bound)
		}
		t.Logf("%d lanes: %d slots, %.2f B a lane, run buffer %d", lanes, q.mask+1, float64(bytes)/float64(lanes), cap(q.run))
	}
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
