package core

import _ "unsafe" // for go:linkname

// freshFrames is mem's count of the page frames its pool had to allocate
// because it was empty. It is read through this seam so that the count
// stays unexported.
//
//go:linkname freshFrames repro/internal/mem.freshFrames
func freshFrames() uint64
