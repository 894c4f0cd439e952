package fleet

import (
	"unsafe"

	"repro/internal/freelist"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// runMem is every array a run sizes by its shape — by clients, requests,
// servers or jobs in flight — in one value. runSequential takes a set from
// the spare list when it starts and gives it back once finishRun has
// assembled the Result, so a run of the last run's shape allocates none of
// them again, and a run of another shape reuses what fits and grows the
// rest. The constructors that fill it (buildClients, newStats,
// newReadyQueue, newSchedQueue, newMachine) overwrite what the last run
// left; no Result field aliases it.
type runMem struct {
	lat     []simtime.PS  // the latency population (stats.Latencies)
	clients []clientState // the client records
	// The ready queue's per-lane links, per-slot heads, slot bitmap and run
	// buffer.
	next, head []int32
	occ        []uint64
	run        []readyEv
	// The server-event heap and its lanes' push ordinals.
	events []event
	seqs   []int32
	// jobs is the machine's job free list; the jobs on it are zeroed
	// (machine.freeJob).
	jobs []*job
	// waits are the machine's queue-wait histograms: the whole pool, the
	// edge tier, the cloud tier.
	waits [3]obs.Histogram
}

// spareSets bounds the spare list by count. A process runs its fleet cells
// one at a time (the benchmark, each experiment), so one set serves it; the
// second keeps two runs side by side from allocating. More concurrent runs
// than that allocate their own sets, which the bound then drops.
const spareSets = 2

// spareSetBytes bounds a set the spare list keeps by its size. It holds the
// benchmark's and the experiments' cells — 100k clients × 10 requests is
// about 11 MB — and drops the million-client fleetscale cell (about 52 MB),
// which a process that ran it once, such as the experiments' tests, would
// otherwise pin for its life.
const spareSetBytes = 16 << 20

// spares is the fleet's spare run memory: a freelist.List, not a sync.Pool,
// so a run allocates the same bytes whenever the collector runs, and what
// the benchmark measures as alloc_mb stays exact per commit, seed and pass
// count.
var spares = freelist.New[runMem](spareSets)

// takeRunMem returns a set the caller owns: the one given back last, or an
// empty one.
func takeRunMem() *runMem {
	if rm := spares.Get(); rm != nil {
		return rm
	}
	return new(runMem)
}

// giveBack collects the arrays as the run left them — grown where it
// appended — and returns the set to the spare list, unless it is over
// spareSetBytes. Nothing of the run may use them afterwards.
func (rm *runMem) giveBack(st *stats, rq *readyQueue, q *schedQueue, m *machine) {
	rm.lat, rm.clients = st.Latencies, rq.cl
	rm.next, rm.head, rm.occ, rm.run = rq.next, rq.head, rq.occ, rq.run
	rm.events, rm.seqs = q.h, q.seq.seqs
	rm.jobs = m.free
	if rm.bytes() <= spareSetBytes {
		spares.Put(rm)
	}
}

// bytes is what the set holds: its arrays' capacities and the jobs on its
// free list.
func (rm *runMem) bytes() int {
	return int(unsafe.Sizeof(*rm)) + arrayBytes(rm.lat) + arrayBytes(rm.clients) +
		arrayBytes(rm.next) + arrayBytes(rm.head) + arrayBytes(rm.occ) + arrayBytes(rm.run) +
		arrayBytes(rm.events) + arrayBytes(rm.seqs) +
		arrayBytes(rm.jobs) + len(rm.jobs)*int(unsafe.Sizeof(job{}))
}

func arrayBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// resize returns buf at length n, on its own array when that is large
// enough. The elements hold whatever the last run left: the caller
// overwrites every one.
func resize[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}
