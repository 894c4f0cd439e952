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

// TestFramePoolHoldsAcrossCollections: what the pool is given it keeps
// however many collections run (a sync.Pool is empty after two), it hands
// frames back last-in first-out without allocating, and it never retains
// more than poolFrames of them.
func TestFramePoolHoldsAcrossCollections(t *testing.T) {
	held := make([]*[PageSize]byte, poolFrames+10)
	for i := range held {
		held[i] = AllocFrame()
	}
	if n := len(pooled()); n != 0 {
		t.Fatalf("%d frames left after taking %d", n, len(held))
	}
	for _, p := range held {
		FreeFrame(p)
	}
	if n := len(pooled()); n != poolFrames {
		t.Fatalf("pool retains %d frames, want its bound %d", n, poolFrames)
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	made := freshFrames()
	for i := poolFrames - 1; i >= 0; i-- {
		if AllocFrame() != held[i] {
			t.Fatalf("take after three collections: not the frame given back at position %d", i)
		}
	}
	if n := freshFrames() - made; n != 0 {
		t.Errorf("taking back what the pool held allocated %d fresh frames", n)
	}
	for _, p := range held[:poolFrames] {
		FreeFrame(p)
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
	for pn := range ov.pages {
		private[ov.pages[pn]] = true
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
	if len(after) != min(len(before)+len(private), poolFrames) {
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
