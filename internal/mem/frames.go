package mem

import "repro/internal/freelist"

// poolFrames bounds the page-frame pool: 1024 frames, 4 MiB. A frame given
// back beyond that is left to the collector, so what a process retains is
// bounded and not the largest page set it ever held.
const poolFrames = 1024

// frames is the one free list every private page comes from and goes back
// to. A freelist.List, not a sync.Pool, so the same sequence of takes and
// gives makes the same number of fresh frames run after run; its misses are
// the frames AllocFrame allocated because the pool was empty.
var frames = freelist.New[[PageSize]byte](poolFrames)

// AllocFrame returns a page frame the caller owns: the frame given back
// last, or a fresh one when the pool is empty. A recycled frame holds what
// its last owner wrote, so the caller overwrites every byte of it before
// any memory reads it.
func AllocFrame() *[PageSize]byte {
	if p := frames.Get(); p != nil {
		return p
	}
	return new([PageSize]byte)
}

// FreeFrame gives p back to the pool. The caller keeps no reference to it:
// the next AllocFrame, in any goroutine, may hand it to another memory.
func FreeFrame(p *[PageSize]byte) { frames.Put(p) }

// freshFrames is how many frames AllocFrame has allocated so far: the
// takes that found the pool empty.
func freshFrames() uint64 { return frames.Misses() }
