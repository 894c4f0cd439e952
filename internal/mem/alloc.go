package mem

import "fmt"

// Allocator is the u_malloc/u_free heap manager of Section 3.2. Its entire
// state — the bump pointer, the free list head, and every block header —
// lives *inside* the UVA heap it manages. That is the property that makes
// cross-machine allocation work without an explicit protocol: when an
// offloaded task allocates on the server, the allocator metadata pages it
// dirties travel back to the mobile device with the ordinary dirty-page
// write-back, and the mobile allocator continues seamlessly.
//
// Layout: the first 16 bytes of the heap region are the admin block
// {brk u32, freeHead u32}. Each allocation is preceded by an 8-byte header
// {size u32, next u32}; next is only meaningful while the block is free.
type Allocator struct {
	M     *Memory
	Base  uint32
	Limit uint32
}

const (
	adminBrk  = 0 // offset of bump pointer in admin block
	adminFree = 4 // offset of free list head
	adminSize = 16
	hdrSize   = 8
	allocAlgn = 16
)

// NewAllocator prepares an allocator over [base, limit) of m. No memory is
// touched until the first Alloc: a server-side allocator must fault the
// admin page in from the mobile device rather than initialize its own.
func NewAllocator(m *Memory, base, limit uint32) *Allocator {
	return &Allocator{M: m, Base: base, Limit: limit}
}

// UVAHeap returns the standard u_malloc allocator for m.
func UVAHeap(m *Memory) *Allocator {
	return NewAllocator(m, HeapBase, HeapLimit)
}

func roundUp(n, a uint32) uint32 { return (n + a - 1) / a * a }

// Alloc reserves size bytes and returns their address.
// First fit on the free list, falling back to bumping brk.
func (a *Allocator) Alloc(size uint32) (uint32, error) {
	if size == 0 {
		size = 1
	}
	need := roundUp(size, allocAlgn)

	// First fit.
	prevPtr := a.Base + adminFree
	cur, err := a.M.ReadUint(prevPtr, 4)
	if err != nil {
		return 0, err
	}
	for cur != 0 {
		blk := uint32(cur)
		bsz, err := a.M.ReadUint(blk, 4)
		if err != nil {
			return 0, err
		}
		nxt, err := a.M.ReadUint(blk+4, 4)
		if err != nil {
			return 0, err
		}
		if uint32(bsz) >= need {
			// Unlink and hand out.
			if err := a.M.WriteUint(prevPtr, 4, nxt); err != nil {
				return 0, err
			}
			return blk + hdrSize, nil
		}
		prevPtr = blk + 4
		cur = nxt
	}

	// Bump allocation.
	brkv, err := a.M.ReadUint(a.Base+adminBrk, 4)
	if err != nil {
		return 0, err
	}
	brk := uint32(brkv)
	if brk == 0 { // first use of this heap anywhere
		brk = a.Base + adminSize
	}
	blk := roundUp(brk+hdrSize, allocAlgn) - hdrSize
	end := blk + hdrSize + need
	if end > a.Limit {
		return 0, fmt.Errorf("mem: UVA heap exhausted: need %d bytes at 0x%x (limit 0x%x)", need, blk, a.Limit)
	}
	if err := a.M.WriteUint(a.Base+adminBrk, 4, uint64(end)); err != nil {
		return 0, err
	}
	if err := a.M.WriteUint(blk, 4, uint64(need)); err != nil {
		return 0, err
	}
	return blk + hdrSize, nil
}

// Free returns the block at addr to the free list. Freeing address 0 is a
// no-op, matching free(NULL).
func (a *Allocator) Free(addr uint32) error {
	if addr == 0 {
		return nil
	}
	if addr < a.Base+adminSize+hdrSize || addr >= a.Limit {
		return fmt.Errorf("mem: u_free of address 0x%x outside heap [0x%x,0x%x)", addr, a.Base, a.Limit)
	}
	blk := addr - hdrSize
	head, err := a.M.ReadUint(a.Base+adminFree, 4)
	if err != nil {
		return err
	}
	if err := a.M.WriteUint(blk+4, 4, head); err != nil {
		return err
	}
	return a.M.WriteUint(a.Base+adminFree, 4, uint64(blk))
}
