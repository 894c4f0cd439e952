package interp

import (
	"testing"

	"repro/internal/mem"
)

// TestCheckpointRestoreState exercises the migration primitive on the
// bind-bench binary: run, snapshot, restore onto a fresh bind of the same
// program, and prove the restored instance is indistinguishable — same
// digest, same stack pointer, and bit-identical further execution.
func TestCheckpointRestoreState(t *testing.T) {
	work, cfg := bindBenchLowered(t)
	prog, err := Compile(work, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	kern := work.Func("kern")

	inst1 := prog.NewInstance()

	// A freshly-bound instance has no private state: its checkpoint ships
	// nothing, regardless of the image footprint.
	st0 := inst1.CheckpointState()
	if st0.NumPages() != 0 {
		t.Fatalf("fresh instance checkpoint ships %d pages, want 0", st0.NumPages())
	}

	ret1, err := inst1.CallFunc(kern)
	if err != nil {
		t.Fatal(err)
	}
	st := inst1.CheckpointState()
	if st.NumPages() == 0 {
		t.Fatal("post-run checkpoint ships no pages")
	}
	// Cost scales with mutated state, not footprint: the kernel reads the
	// whole 256 KiB table but writes only scratch + stack.
	if st.Bytes() >= prog.Image().Bytes()/2 {
		t.Fatalf("checkpoint ships %d bytes of a %d-byte image; should be far smaller", st.Bytes(), prog.Image().Bytes())
	}

	inst2 := prog.NewInstance()
	inst2.RestoreState(st)
	if g, w := inst2.Mem.Digest(), inst1.Mem.Digest(); g != w {
		t.Fatalf("digest after restore = %#x, want %#x", g, w)
	}
	if g, w := inst2.SP(), inst1.SP(); g != w {
		t.Fatalf("SP after restore = %#x, want %#x", g, w)
	}
	if g, w := inst2.Mem.ResidentPrivateBytes(), inst1.Mem.ResidentPrivateBytes(); g != w {
		t.Fatalf("resident bytes after restore = %d, want %d", g, w)
	}

	// Further execution diverges nowhere: both instances run the kernel
	// again (it accumulates into scratch) and stay bit-identical.
	r1, err := inst1.CallFunc(kern)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := inst2.CallFunc(kern)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("post-restore run returned %d, original %d", r2, r1)
	}
	if r1 != ret1 {
		// kern accumulates into scratch, so a second run still returns the
		// same sum of table reads.
		t.Logf("note: kern second run %d vs first %d", r1, ret1)
	}
	if g, w := inst2.Mem.Digest(), inst1.Mem.Digest(); g != w {
		t.Fatalf("digest after post-restore run = %#x, want %#x", g, w)
	}
}

// TestRestoreStateFlushesTLBs restores onto a machine whose page caches
// are warm from prior execution; a stale cached page array (same page
// number, coincidentally matching generation) must not survive the swap.
func TestRestoreStateFlushesTLBs(t *testing.T) {
	work, cfg := bindBenchLowered(t)
	prog, err := Compile(work, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	kern := work.Func("kern")

	// Reference: fresh instance, restore the post-run checkpoint, run.
	src := prog.NewInstance()
	if _, err := src.CallFunc(kern); err != nil {
		t.Fatal(err)
	}
	st := src.CheckpointState()
	ref := prog.NewInstance()
	ref.RestoreState(st)
	want, err := ref.CallFunc(kern)
	if err != nil {
		t.Fatal(err)
	}

	// Victim: TLBs warm from its own run and memory scribbled over, then
	// the same checkpoint restored in place. Execution must match ref.
	victim := prog.NewInstance()
	if _, err := victim.CallFunc(kern); err != nil {
		t.Fatal(err)
	}
	for _, pn := range victim.Mem.DirtyPages() {
		if err := victim.Mem.WriteBytes(pn*mem.PageSize, []byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
			t.Fatal(err)
		}
	}
	victim.RestoreState(st)
	got, err := victim.CallFunc(kern)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restore-in-place run returned %d, want %d (stale TLB?)", got, want)
	}
	if g, w := victim.Mem.Digest(), ref.Mem.Digest(); g != w {
		t.Fatalf("digest after restore-in-place run = %#x, want %#x", g, w)
	}
}

// TestRecycledFrameServesNoStaleHit: a page frame a memory gives back may
// serve another memory by the next access, so a page cache entry must never
// hit on it again. Machine A caches page X; X's frame goes back to the pool
// (Drop, Release, or a Drop followed by RestoreState, which rewinds the
// generation to the checkpoint's); memory B takes that very frame and writes
// poison into it; A's next read of X misses and sees X's own bytes.
func TestRecycledFrameServesNoStaleHit(t *testing.T) {
	work, cfg := bindBenchLowered(t)
	prog, err := Compile(work, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const addr = mem.HeapBase + 64
	pn := mem.PageNum(addr)
	drop := func(m *mem.Memory) { m.Drop(pn) }
	for _, c := range []struct {
		name    string
		give    func(*mem.Memory)
		restore bool
		want    uint64
	}{
		{"drop", drop, false, 0},
		{"release", (*mem.Memory).Release, false, 0},
		{"restore", drop, true, 42},
	} {
		a := prog.NewInstance()
		if err := a.writeMem(addr, 8, 42); err != nil {
			t.Fatal(err)
		}
		if v, err := a.readMem(addr, 8); err != nil || v != 42 {
			t.Fatalf("%s: read %d, %v", c.name, v, err)
		}
		frame, err := a.Mem.Page(pn)
		if err != nil {
			t.Fatal(err)
		}
		st := a.CheckpointState()
		c.give(a.Mem)
		b := mem.New()
		if err := b.WriteUint(addr, 8, 0xdead); err != nil {
			t.Fatal(err)
		}
		if &b.PageData(pn)[0] != &frame[0] {
			t.Fatalf("%s: memory B did not take the frame A gave back", c.name)
		}
		if c.restore {
			a.RestoreState(st)
		}
		if v, err := a.readMem(addr, 8); err != nil || v != c.want {
			t.Errorf("%s: A read %#x (%v) through a recycled frame, want %d", c.name, v, err, c.want)
		}
	}
}
