package mem

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
)

// pooled returns the frames the pool holds, top last, and leaves the pool
// as it found it.
func pooled() []*[PageSize]byte {
	held := make([]*[PageSize]byte, frames.Len())
	for i := len(held) - 1; i >= 0; i-- {
		held[i] = frames.Get()
	}
	for _, p := range held {
		frames.Put(p)
	}
	return held
}

// TestFramePoolHoldsAcrossCollections: the pool keeps every frame it is
// given back however many collections run (a sync.Pool is empty after two),
// and it hands them back last-in first-out without allocating.
func TestFramePoolHoldsAcrossCollections(t *testing.T) {
	// More than the pool holds, so the takes allocate and the gives grow it.
	held := make([]*[PageSize]byte, frames.Len()+1100)
	for i := range held {
		held[i] = AllocFrame()
	}
	if n := len(pooled()); n != 0 {
		t.Fatalf("%d frames left after taking %d", n, len(held))
	}
	for _, p := range held {
		FreeFrame(p)
	}
	if n := len(pooled()); n != len(held) {
		t.Fatalf("pool retains %d of the %d frames given back", n, len(held))
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	made := freshFrames()
	for i := len(held) - 1; i >= 0; i-- {
		if AllocFrame() != held[i] {
			t.Fatalf("take after three collections: not the frame given back at position %d", i)
		}
	}
	if n := freshFrames() - made; n != 0 {
		t.Errorf("taking back what the pool held allocated %d fresh frames", n)
	}
	for _, p := range held {
		FreeFrame(p)
	}
}

// TestFramePoolHoldsAtMostThePeak: the pool keeps everything it is given
// back, yet never more frames than were out at once. From an empty pool, a
// run of takes and gives that peaks at k frames out leaves the pool holding
// at most k minus what is still out at every step, and exactly k once all
// are back: a frame is made only when the pool is empty.
func TestFramePoolHoldsAtMostThePeak(t *testing.T) {
	drained := make([]*[PageSize]byte, frames.Len())
	for i := range drained {
		drained[i] = AllocFrame()
	}
	defer func() {
		for _, p := range drained {
			FreeFrame(p)
		}
	}()
	var out []*[PageSize]byte
	peak := 0
	rng := uint64(0x9e3779b97f4a7c15)
	for step := 0; step < 6000; step++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		// Takes outnumber gives three to two, so the peak climbs in bursts.
		if len(out) == 0 || rng%5 < 3 {
			out = append(out, AllocFrame())
			peak = max(peak, len(out))
		} else {
			FreeFrame(out[len(out)-1])
			out = out[:len(out)-1]
		}
		if n := frames.Len(); n+len(out) > peak {
			t.Fatalf("step %d: pool holds %d frames with %d out, past the peak of %d", step, n, len(out), peak)
		}
	}
	for _, p := range out {
		FreeFrame(p)
	}
	if n := frames.Len(); n != peak {
		t.Errorf("pool holds %d frames once all are back, want the peak %d", n, peak)
	}
	for range peak { // leave the pool as the test found it
		AllocFrame()
	}
}

// TestReleaseGivesBackPrivatePagesOnly: an overlay's image pages are shared
// with every other instance of the program, so nothing the overlay does —
// copy-on-write, Drop, AdoptPage over an image page, Release — puts one in
// the pool. Its private pages all go back, and the released overlay reads
// as freshly bound.
func TestReleaseGivesBackPrivatePagesOnly(t *testing.T) {
	img := Snapshot(buildSourceMemory(t))
	ov := NewOverlay(img)
	if err := ov.WriteBytes(PageAddr(10), []byte{0xee}); err != nil { // a private copy of an image page
		t.Fatal(err)
	}
	if err := ov.WriteBytes(PageAddr(40), []byte{0xee}); err != nil { // a page the image lacks
		t.Fatal(err)
	}
	ov.TrackDirty = true
	if err := ov.WriteBytes(PageAddr(41), []byte{0xee}); err != nil {
		t.Fatal(err)
	}
	ov.Drop(11) // masks an image page
	adopted := AllocFrame()
	clear(adopted[:])
	ov.AdoptPage(12, adopted) // shadows an image page; frees nothing
	private := map[*[PageSize]byte]bool{}
	for _, l := range ov.leaves() {
		for _, p := range l.frames {
			if p != nil {
				private[p] = true
			}
		}
	}
	if len(private) != 4 {
		t.Fatalf("%d private pages, want 4", len(private))
	}

	before := pooled()
	gen := ov.Gen()
	ov.Release()
	after := pooled()
	image := map[*[PageSize]byte]bool{}
	for _, pn := range img.Pages() {
		p, _ := img.page(pn)
		image[p] = true
	}
	for _, p := range after {
		if image[p] {
			t.Fatal("an image page entered the frame pool")
		}
	}
	if len(after) != len(before)+len(private) {
		t.Errorf("pool went from %d to %d frames over the release of %d private pages", len(before), len(after), len(private))
	}
	for _, p := range after[len(before):] {
		if !private[p] {
			t.Error("Release put a frame in the pool that was not one of the memory's private pages")
		}
	}

	if ov.Gen() == gen {
		t.Error("Release did not advance the generation")
	}
	fresh := NewOverlay(img)
	if got, want := ov.PresentPages(), fresh.PresentPages(); len(got) != len(want) || ov.Digest() != fresh.Digest() {
		t.Errorf("released overlay presents %v, a fresh one %v", got, want)
	}
	if ov.ResidentPrivateBytes() != 0 || len(ov.DirtyPages()) != 0 {
		t.Errorf("released overlay keeps %d private bytes and %d dirty pages", ov.ResidentPrivateBytes(), len(ov.DirtyPages()))
	}
}

// TestFramePoolConcurrentOwners: a session's mobile and server goroutines,
// and sessions running side by side, share the one pool. However their
// takes and gives interleave, a frame has one owner at a time: each worker
// stamps every frame it takes with its own mark and finds the mark intact
// before it gives the frame back.
func TestFramePoolConcurrentOwners(t *testing.T) {
	const workers, rounds, hold = 4, 200, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mark uint64) {
			defer wg.Done()
			var held [hold]*[PageSize]byte
			for r := 0; r < rounds; r++ {
				for i := range held {
					held[i] = AllocFrame()
					binary.LittleEndian.PutUint64(held[i][:], mark)
					binary.LittleEndian.PutUint64(held[i][PageSize-8:], mark)
				}
				runtime.Gosched()
				for i, p := range held {
					if binary.LittleEndian.Uint64(p[:]) != mark || binary.LittleEndian.Uint64(p[PageSize-8:]) != mark {
						t.Errorf("worker %d: a frame it held was written by another owner", mark)
						return
					}
					FreeFrame(p)
					held[i] = nil
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}
