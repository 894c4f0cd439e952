// Machine checkpoint/restore: the interp half of mid-flight offload
// migration. A checkpoint carries the machine-visible execution state a
// migration must ship — the stack pointer and the private pages of the
// copy-on-write memory overlay. Everything else a resumed instance needs
// (code, clean initial pages, address layout) re-binds from the shared
// Program image on the target for free, so checkpoint size is
// proportional to mutated state, not to the program's footprint.
package interp

import "repro/internal/mem"

// State is the migratable execution state of a program instance.
type State struct {
	// SP is the guest stack pointer at the checkpoint instant. The frame
	// stack — each in-progress activation's function, pc and registers
	// (Machine.frames, Machine.regs) — is not part of the checkpoint, which
	// is why RestoreState restores into the machine that holds those frames,
	// in place, and not into a fresh instance (ROADMAP item 23(c)).
	SP uint32
	// Mem is the private-page snapshot of the copy-on-write overlay.
	Mem *mem.Checkpoint
}

// NumPages is the number of private pages the checkpoint ships.
func (s *State) NumPages() int { return s.Mem.NumPages() }

// Bytes is the page payload the checkpoint ships.
func (s *State) Bytes() int { return s.Mem.Bytes() }

// FlushTLBs invalidates the machine's direct-mapped page caches. Required
// after any wholesale replacement of the machine's Memory: a cached entry
// pairs a page array with a generation counter, and a restored memory may
// legitimately reuse both.
func (m *Machine) FlushTLBs() {
	m.rtlb = [tlbWays]tlbEntry{}
	m.wtlb = [tlbWays]tlbEntry{}
}

// CheckpointState snapshots the machine's migratable state. The clean pages
// it omits re-bind from the Program image on the target.
func (m *Machine) CheckpointState() *State {
	return &State{SP: m.sp, Mem: m.Mem.Checkpoint()}
}

// RestoreState restores a checkpoint into the machine's overlay in place,
// modelling resumption on a new host: the target binds the immutable
// Program image O(1) (this machine's overlay already shares it) and
// receives only the private pages. The restore replaces the overlay's
// private state without changing the Memory object's identity, so the
// swap is safe even at a remote-service boundary reached from inside a
// page-fault handler — an in-flight fault completes against the restored
// page set. The fault handler, dirty tracking, and touch hook are
// untouched; the heap allocators' administrative state lives inside guest
// memory, so it travels with the checkpointed pages. The page TLBs are
// flushed: the restored generation deliberately equals the snapshot's,
// which a stale cache entry would otherwise match.
func (m *Machine) RestoreState(s *State) {
	m.Mem.Restore(s.Mem)
	m.SetSP(s.SP)
	m.FlushTLBs()
}
