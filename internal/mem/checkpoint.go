package mem

import (
	"math/bits"
	"slices"
)

// Checkpoint is a self-contained snapshot of an overlay's private state:
// everything that distinguishes this Memory from a fresh bind of the same
// base Image. Clean image pages are deliberately absent — the migration
// target re-binds them from its own copy of the shared Program image for
// free — so a checkpoint's size is proportional to mutated state, not to
// the program's memory footprint.
type Checkpoint struct {
	// Pages are the private (faulted, copy-on-written, or installed) pages
	// in ascending page-number order, with their dirty bits.
	Pages []CheckpointPage
	// Masked are the base-image pages this memory has dropped, sorted.
	Masked []uint32
	// Faults is the copy-on-demand fault count at snapshot time.
	Faults int
	// Gen is the invalidation generation at snapshot time. Restoring it
	// keeps digests and generation-keyed caches comparable across the
	// migration, but any cache keyed on (page pointer, gen) must still be
	// flushed explicitly: the restored pages are other arrays, frames from
	// the pool — possibly one a stale entry still points at, now holding
	// another page or serving another memory.
	Gen uint64
}

// CheckpointPage is one private page in a Checkpoint.
type CheckpointPage struct {
	PN    uint32
	Dirty bool
	Data  []byte // PageSize bytes, owned by the checkpoint
}

// NumPages is the number of private pages the checkpoint carries.
func (c *Checkpoint) NumPages() int { return len(c.Pages) }

// Bytes is the page payload size of the checkpoint — the dominant term of
// what a migration must ship.
func (c *Checkpoint) Bytes() int { return len(c.Pages) * PageSize }

// Checkpoint captures the memory's private state. The snapshot owns its
// page copies: later writes to the memory do not alter it.
func (m *Memory) Checkpoint() *Checkpoint {
	c := &Checkpoint{Faults: m.Faults, Gen: m.gen}
	for _, l := range m.leaves() {
		for w := l.present; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			c.Pages = append(c.Pages, CheckpointPage{
				PN:    l.key<<leafShift | uint32(i),
				Dirty: l.dirty&(1<<i) != 0,
				Data:  slices.Clone(l.frames[i][:]),
			})
		}
		c.Masked = appendBits(c.Masked, l.key, l.masked)
	}
	return c
}

// Restore replaces the memory's private state with the checkpoint's:
// private pages (with their dirty bits), masked set, fault count, and
// generation. The base image, fault handler, and tracking flags are left
// untouched — the caller binds a fresh overlay of the *same* Image on the
// target and restores into it, after which Digest, DirtyPages, and
// PresentPages match the source exactly. The private pages the memory held
// before are let go, not given back to the pool: a stale cache entry may
// still point at one.
func (m *Memory) Restore(c *Checkpoint) {
	if m.tab != nil {
		freeTable(m.tab)
		m.tab, m.hint = nil, nil
	}
	for _, cp := range c.Pages {
		p := AllocFrame()
		clear(p[copy(p[:], cp.Data):])
		l := m.setFrame(m.leafOf(cp.PN), cp.PN, p)
		if cp.Dirty {
			l.dirty |= 1 << (cp.PN & leafMask)
		}
	}
	for _, pn := range c.Masked {
		m.addLeaf(pn).masked |= 1 << (pn & leafMask)
	}
	m.Faults = c.Faults
	m.gen = c.Gen
}
