package mem

import "sync"

// poolFrames bounds the page-frame pool: 1024 frames, 4 MiB. A frame given
// back beyond that is left to the collector, so what a process retains is
// bounded and not the largest page set it ever held.
const poolFrames = 1024

// framePool is the one free list every private page comes from and goes
// back to. It is not a sync.Pool: the collector empties a Pool on its own
// schedule, so what a run allocated would depend on when collections fell.
// A last-in first-out list under a mutex hands out the same number of fresh
// frames for the same sequence of takes and gives, run after run.
type framePool struct {
	mu   sync.Mutex
	free []*[PageSize]byte
	// made counts the frames AllocFrame allocated because the pool was
	// empty.
	made uint64
}

var frames framePool

// AllocFrame returns a page frame the caller owns: the frame given back
// last, or a fresh one when the pool is empty. A recycled frame holds what
// its last owner wrote, so the caller overwrites every byte of it before
// any memory reads it.
func AllocFrame() *[PageSize]byte {
	frames.mu.Lock()
	defer frames.mu.Unlock()
	n := len(frames.free)
	if n == 0 {
		frames.made++
		return new([PageSize]byte)
	}
	p := frames.free[n-1]
	frames.free[n-1] = nil
	frames.free = frames.free[:n-1]
	return p
}

// FreeFrame gives p back to the pool. The caller keeps no reference to it:
// the next AllocFrame, in any goroutine, may hand it to another memory.
func FreeFrame(p *[PageSize]byte) {
	frames.mu.Lock()
	defer frames.mu.Unlock()
	if len(frames.free) < poolFrames {
		frames.free = append(frames.free, p)
	}
}

// freshFrames is how many frames AllocFrame has allocated so far.
func freshFrames() uint64 {
	frames.mu.Lock()
	defer frames.mu.Unlock()
	return frames.made
}
