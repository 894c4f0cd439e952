package fleet

import (
	"math"
	"math/bits"

	"repro/internal/simtime"
)

// loadIndex answers the est-aware question — which live server of one
// candidate set completes this request soonest — without pricing every
// candidate. It rests on one identity. A live server whose slots are all
// taken (len(running) == Slots) owes
//
//	left = reserved + queExec + finSum − Slots·now = A − Slots·now
//
// (server.outstanding), and left >= 0 because every running job has
// finish >= now and reserved >= 0. Integer division of a non-negative
// number is the floor and now is an integer, so its queueing delay is
//
//	left / Slots = A/Slots − now = q − now
//
// exactly: q is a key no clock tick changes, and among servers of one
// (R, Slots) spec — equal execution time for any request — the order of
// completion estimates is the order of q. The index keeps, per distinct
// spec, a tournament tree over that spec's saturated live candidates
// keyed on q, so a spec is priced at its root alone. A server with a free
// slot has fewer than Slots terms in finSum and no such key (the floor no
// longer commutes with the clock); those sit in the open bitmap and are
// priced one by one, exactly as the walk priced them. Down servers are in
// neither.
//
// The index is refreshed lazily. The server mutators (reserve, release,
// enqueue, pop, start, dropRunning, takeDown — the only code
// that writes down, running, reserved, queExec or finSum,
// TestLoadFieldsWrittenOnlyByServerMethods) end in server.mark, which
// appends the server's position to stale once; the next pick or mayBeat
// re-files every stale server from its fields. A finish that pulls the
// next queued job into the freed slot therefore nets to the same A
// (−finish − exec + (now + exec), finish == now) and costs the tree nothing.
type loadIndex struct {
	cand    []int     // candidate position -> pool index, ascending
	servers []*server // candidate position -> server
	trees   []specTree
	leaf    []leafRef // candidate position -> its leaf
	open    []uint64  // bit p: candidate p is live with a free slot
	stale   []int32   // positions marked since the last refresh
}

// noKey files a server that is down or has a free slot: it loses every
// match in its tree.
const noKey = simtime.PS(math.MaxInt64)

// specTree is the tournament over the candidates of one spec: node[1] is
// the winner, node[i] the better of node[2i] and node[2i+1], leaf k is
// node[size+k]. The left child wins ties and leaves are in candidate
// order, so a node names the lowest position among its smallest keys —
// the walk's tie rule.
type specTree struct {
	spec ServerSpec
	size int // leaf slots, a power of two
	node []treeNode
	exec simtime.PS // execTime of the query in progress at spec.R
}

type treeNode struct {
	q   simtime.PS
	pos int32 // candidate position of the server holding q
}

type leafRef struct{ tree, leaf int32 }

// newLoadIndex indexes the candidate set cand (ascending pool indices) of
// servers and files every candidate's current state. A server belongs to
// the index built over it last.
func newLoadIndex(servers []*server, cand []int) *loadIndex {
	ix := &loadIndex{
		cand:    cand,
		servers: make([]*server, len(cand)),
		leaf:    make([]leafRef, len(cand)),
		open:    make([]uint64, (len(cand)+63)/64),
		stale:   make([]int32, 0, len(cand)),
	}
	// First the census: each candidate takes the next leaf of its spec's
	// tree, whose size counts them; then the trees are laid out.
	treeOf := map[ServerSpec]int32{}
	for p, i := range cand {
		s := servers[i]
		ix.servers[p] = s
		s.ix, s.pos, s.stale = ix, int32(p), false
		t, ok := treeOf[s.spec]
		if !ok {
			t = int32(len(ix.trees))
			treeOf[s.spec] = t
			ix.trees = append(ix.trees, specTree{spec: s.spec})
		}
		ix.leaf[p] = leafRef{tree: t, leaf: int32(ix.trees[t].size)}
		ix.trees[t].size++
	}
	for ti := range ix.trees {
		t := &ix.trees[ti]
		n := t.size
		t.size = 1
		for t.size < n {
			t.size *= 2
		}
		t.node = make([]treeNode, 2*t.size)
		for i := range t.node {
			t.node[i] = treeNode{q: noKey, pos: -1}
		}
	}
	for p, ref := range ix.leaf {
		t := &ix.trees[ref.tree]
		t.node[t.size+int(ref.leaf)].pos = int32(p)
	}
	for ti := range ix.trees {
		t := &ix.trees[ti]
		for i := t.size - 1; i >= 1; i-- {
			t.node[i] = t.node[2*i]
		}
	}
	for p := range cand {
		ix.file(int32(p))
	}
	return ix
}

// file re-derives candidate p's place from its server's fields: the open
// bit, and the key of its leaf with the matches above it replayed up to
// the first node the change does not reach.
func (ix *loadIndex) file(p int32) {
	s := ix.servers[p]
	q, free := noKey, false
	if !s.down {
		if len(s.running) < s.spec.Slots {
			free = true
		} else {
			q = (s.reserved + s.queExec + s.finSum) / simtime.PS(s.spec.Slots)
		}
	}
	if word, bit := &ix.open[p/64], uint64(1)<<(p%64); free {
		*word |= bit
	} else {
		*word &^= bit
	}
	ref := ix.leaf[p]
	t := &ix.trees[ref.tree]
	i := t.size + int(ref.leaf)
	if t.node[i].q == q {
		return
	}
	t.node[i].q = q
	for i > 1 {
		i /= 2
		w := t.node[2*i]
		if r := t.node[2*i+1]; r.q < w.q {
			w = r
		}
		if t.node[i] == w {
			return
		}
		t.node[i] = w
	}
}

// refresh re-files every server marked since the last one.
func (ix *loadIndex) refresh() {
	for _, p := range ix.stale {
		ix.servers[p].stale = false
		ix.file(p)
	}
	ix.stale = ix.stale[:0]
}

// pick returns the live candidate minimizing the estimated remote
// completion time transfer + estWait(now) + execTime(tm), and its estWait;
// ties go to the lowest candidate position, and with nobody up it returns
// -1. Each spec is priced at its root — transfer + (q − now) + exec — and
// each open server in full; the smallest (total, position) wins. It
// allocates nothing.
func (ix *loadIndex) pick(now, tm, transfer simtime.PS) (int, simtime.PS) {
	ix.refresh()
	best, bestWait, bestTotal := int32(-1), simtime.PS(0), simtime.PS(0)
	lead := func(p int32, w, total simtime.PS) {
		if best < 0 || total < bestTotal || (total == bestTotal && p < best) {
			best, bestWait, bestTotal = p, w, total
		}
	}
	for ti := range ix.trees {
		t := &ix.trees[ti]
		t.exec = execTime(tm, t.spec.R)
		if root := t.node[1]; root.q != noKey {
			w := root.q - now
			lead(root.pos, w, transfer+w+t.exec)
		}
	}
	for wi, word := range ix.open {
		for ; word != 0; word &= word - 1 {
			p := int32(wi*64 + bits.TrailingZeros64(word))
			w := ix.servers[p].estWait(now)
			lead(p, w, transfer+w+ix.trees[ix.leaf[p].tree].exec)
		}
	}
	if best < 0 {
		return -1, 0
	}
	return ix.cand[best], bestWait
}

// mayBeat reports whether some live candidate could finish remTm of work
// arriving at instant at in under budget — estWaitAt(at) + execTime(remTm)
// < budget — so a false lets replace skip its walk over every running
// list. Open servers are priced exactly. A saturated one is bounded from
// below: each running job contributes max(0, finish − at) >= finish − at
// and the whole sum is non-negative, so estWaitAt(at) >= max(0, q − at),
// and the root's q is its spec's smallest. A true is only "the walk must
// look"; the walk stays the judge.
func (ix *loadIndex) mayBeat(at, remTm, budget simtime.PS) bool {
	ix.refresh()
	for ti := range ix.trees {
		t := &ix.trees[ti]
		t.exec = execTime(remTm, t.spec.R)
		if root := t.node[1]; root.q != noKey && max(0, root.q-at)+t.exec < budget {
			return true
		}
	}
	for wi, word := range ix.open {
		for ; word != 0; word &= word - 1 {
			p := wi*64 + bits.TrailingZeros64(word)
			if ix.servers[p].estWaitAt(at)+ix.trees[ix.leaf[p].tree].exec < budget {
				return true
			}
		}
	}
	return false
}
