package mem

import (
	"math"

	"repro/internal/freelist"
)

// frames is the one free list every private page comes from and goes back
// to. A freelist.List, not a sync.Pool, so the same sequence of takes and
// gives makes the same number of fresh frames run after run; its misses are
// the frames AllocFrame allocated because the pool was empty.
//
// It keeps every frame it is given back. That retention is bounded all the
// same: AllocFrame makes a frame only when the list is empty, so the list
// never holds more frames than were live together when the last one was
// made — the process's peak guest working set, resident at that moment
// anyway. A bound below that peak would only make each run that reaches it
// allocate the frames past the bound again.
var frames = freelist.New[[PageSize]byte](math.MaxInt)

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
