package mem

import (
	"slices"

	"repro/internal/freelist"
)

// Page-table geometry: a leaf maps 64 consecutive pages, so its bitmaps are
// one word each.
const (
	leafShift = 6
	leafPages = 1 << leafShift
	leafMask  = leafPages - 1
)

// leaf maps the 64 pages whose numbers share key = pn >> leafShift: a frame
// pointer per page and a bitmap per attribute, bit pn & leafMask.
type leaf struct {
	key uint32
	// present has a bit for every non-nil frame.
	present uint64
	// dirty marks the private pages written since the last ClearDirty; it
	// is a subset of present.
	dirty uint64
	// masked marks the base image pages a memory has dropped; it is
	// disjoint from present. An image's leaves never set it.
	masked uint64
	frames [leafPages]*[PageSize]byte
}

// table is a sparse page table: its leaves sorted by key, so every walk
// comes out in page order without a sort. Only leaves that map something are
// kept, so what a table allocates scales with the pages it holds.
type table struct {
	leaves []*leaf
}

// search returns the index of the leaf with key, or the index it would be
// inserted at, and whether it is there.
func (t *table) search(key uint32) (int, bool) {
	lo, hi := 0, len(t.leaves)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if t.leaves[h].key < key {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(t.leaves) && t.leaves[lo].key == key
}

// find returns the leaf that maps pn, or nil. It writes nothing, so any
// number of goroutines may look up one table that no one modifies.
func (t *table) find(pn uint32) *leaf {
	if i, ok := t.search(pn >> leafShift); ok {
		return t.leaves[i]
	}
	return nil
}

// add returns the leaf that maps pn, making an empty one if there is none.
func (t *table) add(pn uint32) *leaf {
	key := pn >> leafShift
	i, ok := t.search(key)
	if ok {
		return t.leaves[i]
	}
	l := allocLeaf()
	l.key = key
	t.leaves = slices.Insert(t.leaves, i, l)
	return l
}

// remove takes leaf l, now empty, out of the table and gives it back.
func (t *table) remove(l *leaf) {
	i, _ := t.search(l.key)
	t.leaves = slices.Delete(t.leaves, i, i+1)
	freeLeaf(l)
}

// Bounds of the free lists leaves and tables come back through: 256 leaves
// (about 144 KiB, the leaves of 16 Ki pages) and 64 tables of at most
// poolTableLeaves leaves each. A table that grew larger is left to the
// collector.
const (
	poolLeaves      = 256
	poolTables      = 64
	poolTableLeaves = 64
)

var (
	leafList  = freelist.New[leaf](poolLeaves)
	tableList = freelist.New[table](poolTables)
)

// allocLeaf returns an empty leaf: the one given back last, or a fresh one.
func allocLeaf() *leaf {
	if l := leafList.Get(); l != nil {
		return l
	}
	return new(leaf)
}

// freeLeaf clears l — a pooled leaf holds no frames — and gives it back.
func freeLeaf(l *leaf) {
	*l = leaf{}
	leafList.Put(l)
}

// allocTable returns an empty table, recycled when the pool has one.
func allocTable() *table {
	if t := tableList.Get(); t != nil {
		return t
	}
	return new(table)
}

// freeTable gives t's leaves back and then t itself, unless its directory
// grew past poolTableLeaves.
func freeTable(t *table) {
	for _, l := range t.leaves {
		freeLeaf(l)
	}
	clear(t.leaves)
	t.leaves = t.leaves[:0]
	if cap(t.leaves) <= poolTableLeaves {
		tableList.Put(t)
	}
}
