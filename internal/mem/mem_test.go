package mem

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	if err := m.WriteUint(0x2000_0000, 4, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadUint(0x2000_0000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Errorf("read back 0x%x, want 0xDEADBEEF", v)
	}
}

func TestLittleEndianStorage(t *testing.T) {
	m := New()
	if err := m.WriteUint(0x1000, 4, 0x11223344); err != nil {
		t.Fatal(err)
	}
	b, _ := m.ReadBytes(0x1000, 4)
	want := []byte{0x44, 0x33, 0x22, 0x11}
	if !bytes.Equal(b, want) {
		t.Errorf("bytes = %x, want %x (standard order is little-endian)", b, want)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	addr := uint32(PageSize - 2) // straddles pages 0 and 1
	if err := m.WriteUint(addr, 8, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadUint(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x0102030405060708 {
		t.Errorf("cross-page read = 0x%x", v)
	}
	if m.PageData(0) == nil || m.PageData(1) == nil {
		t.Error("both straddled pages should be present")
	}
}

func TestDirtyTracking(t *testing.T) {
	m := New()
	m.TrackDirty = true
	m.WriteUint(PageAddr(5)+8, 4, 1)
	m.WriteUint(PageAddr(9), 4, 1)
	m.ReadUint(PageAddr(7), 4) // read-only touch must not dirty
	d := m.DirtyPages()
	if len(d) != 2 || d[0] != 5 || d[1] != 9 {
		t.Errorf("DirtyPages = %v, want [5 9]", d)
	}
	m.ClearDirty()
	if len(m.DirtyPages()) != 0 {
		t.Error("ClearDirty left dirty pages")
	}
}

func TestCopyOnDemandFault(t *testing.T) {
	// Simulate the mobile side owning data the server faults in.
	mobile := New()
	mobile.WriteUint(PageAddr(3)+16, 4, 777)

	server := New()
	server.Fault = func(pn uint32) ([]byte, error) {
		return mobile.PageData(pn), nil
	}
	v, err := server.ReadUint(PageAddr(3)+16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 777 {
		t.Errorf("copy-on-demand read = %d, want 777", v)
	}
	if server.Faults != 1 {
		t.Errorf("Faults = %d, want 1", server.Faults)
	}
	// Second access: no new fault.
	server.ReadUint(PageAddr(3)+20, 4)
	if server.Faults != 1 {
		t.Errorf("Faults after second access = %d, want 1 (page cached)", server.Faults)
	}
}

func TestTouchHookObservesFootprint(t *testing.T) {
	m := New()
	touched := map[uint32]bool{}
	m.Touch = func(pn uint32) { touched[pn] = true }
	m.WriteUint(PageAddr(1), 4, 1)
	m.WriteUint(PageAddr(1)+64, 4, 1)
	m.ReadUint(PageAddr(4), 4)
	if len(touched) != 2 || !touched[1] || !touched[4] {
		t.Errorf("touched = %v, want pages 1 and 4", touched)
	}
}

func TestInstallAndDropPage(t *testing.T) {
	m := New()
	data := make([]byte, PageSize)
	data[100] = 0xAB
	m.InstallPage(42, data)
	v, _ := m.ReadUint(PageAddr(42)+100, 1)
	if v != 0xAB {
		t.Errorf("installed page content = 0x%x, want 0xAB", v)
	}
	m.Drop(42)
	if m.PageData(42) != nil {
		t.Error("Drop left page present")
	}
}

func TestAllocatorBasic(t *testing.T) {
	m := New()
	a := UVAHeap(m)
	p1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("allocator returned the same block twice")
	}
	if p1%allocAlgn != 0 || p2%allocAlgn != 0 {
		t.Errorf("misaligned blocks: 0x%x 0x%x", p1, p2)
	}
	if p1 < HeapBase || p2 >= HeapLimit {
		t.Errorf("blocks outside heap region: 0x%x 0x%x", p1, p2)
	}
}

func TestAllocatorFreeAndReuse(t *testing.T) {
	m := New()
	a := UVAHeap(m)
	p1, _ := a.Alloc(64)
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	p2, _ := a.Alloc(48) // fits in the freed 64-byte block
	if p2 != p1 {
		t.Errorf("freed block not reused: got 0x%x, want 0x%x", p2, p1)
	}
	if err := a.Free(0); err != nil {
		t.Errorf("Free(0) should be a no-op, got %v", err)
	}
	if err := a.Free(0x100); err == nil {
		t.Error("Free of out-of-heap address should fail")
	}
}

func TestAllocatorStateMigratesWithPages(t *testing.T) {
	// Allocate on "mobile", copy the heap pages to a fresh "server"
	// memory, and continue allocating there: the server must not hand out
	// overlapping blocks, because the allocator state lives in the pages.
	mobile := New()
	am := UVAHeap(mobile)
	var mobileBlocks []uint32
	for i := 0; i < 10; i++ {
		p, err := am.Alloc(200)
		if err != nil {
			t.Fatal(err)
		}
		mobileBlocks = append(mobileBlocks, p)
	}

	server := New()
	server.Fault = func(pn uint32) ([]byte, error) { return mobile.PageData(pn), nil }
	as := UVAHeap(server)
	p, err := as.Alloc(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, mb := range mobileBlocks {
		if p < mb+200 && mb < p+200 {
			t.Errorf("server block 0x%x overlaps mobile block 0x%x", p, mb)
		}
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	m := New()
	a := NewAllocator(m, HeapBase, HeapBase+4096)
	if _, err := a.Alloc(8192); err == nil {
		t.Error("expected heap exhaustion error")
	}
}

func TestAllocatorPropertyNoOverlap(t *testing.T) {
	// Property: any interleaving of allocs (and frees of previous allocs)
	// yields live blocks that never overlap.
	check := func(ops []uint16) bool {
		m := New()
		a := UVAHeap(m)
		type blk struct{ addr, size uint32 }
		var live []blk
		for i, op := range ops {
			if i >= 64 {
				break
			}
			size := uint32(op%500) + 1
			if op%7 == 0 && len(live) > 0 {
				victim := int(op) % len(live)
				if a.Free(live[victim].addr) != nil {
					return false
				}
				live = append(live[:victim], live[victim+1:]...)
				continue
			}
			p, err := a.Alloc(size)
			if err != nil {
				return false
			}
			for _, l := range live {
				if p < l.addr+l.size && l.addr < p+size {
					return false
				}
			}
			live = append(live, blk{p, size})
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPageNumAddrInverse(t *testing.T) {
	for _, addr := range []uint32{0, 1, PageSize - 1, PageSize, 0x7FFF_FFFF} {
		pn := PageNum(addr)
		if PageAddr(pn) > addr || addr-PageAddr(pn) >= PageSize {
			t.Errorf("PageNum/PageAddr inconsistent for 0x%x", addr)
		}
	}
}

// TestGenerationCounter pins down the invalidation contract the interpreter's
// page caches rely on: structural mutations (install, drop, dirty-bit
// clearing) bump the generation; faulting a page in does not, because the
// resident array a cached pointer refers to never moves.
func TestGenerationCounter(t *testing.T) {
	m := New()
	g0 := m.Gen()
	if _, err := m.Page(3); err != nil { // fault-in: no bump
		t.Fatal(err)
	}
	if m.Gen() != g0 {
		t.Errorf("fault-in bumped gen %d -> %d; cached page pointers are still valid", g0, m.Gen())
	}
	m.InstallPage(3, []byte{1, 2, 3})
	if m.Gen() == g0 {
		t.Error("InstallPage must bump gen: it replaces the page array")
	}
	g1 := m.Gen()
	m.Drop(3)
	if m.Gen() == g1 {
		t.Error("Drop must bump gen")
	}
	g2 := m.Gen()
	m.ClearDirty()
	if m.Gen() == g2 {
		t.Error("ClearDirty must bump gen: write caches pin the dirty bit")
	}
	// Invalidate bumps it and changes nothing a program or a transfer sees.
	m.TrackDirty = true
	if err := m.WriteUint(PageAddr(5), 8, 42); err != nil {
		t.Fatal(err)
	}
	g4, digest, faults := m.Gen(), m.Digest(), m.Faults
	m.Invalidate()
	if m.Gen() == g4 {
		t.Error("Invalidate must bump gen: that is all it is for")
	}
	if d := m.DirtyPages(); len(d) != 1 || d[0] != 5 || m.Digest() != digest || m.Faults != faults ||
		len(m.PresentPages()) != 1 || m.ResidentPrivateBytes() != PageSize {
		t.Errorf("Invalidate changed the memory: dirty %v present %v faults %d", d, m.PresentPages(), m.Faults)
	}
}

// TestDirtyBitFollowsThePage: the dirty bits live beside the pages (a page is
// exactly PageSize bytes), so every way a page leaves or is replaced must
// take its bit along: InstallPage marks clean, Drop forgets, and a dropped
// page that faults back in comes back clean.
func TestDirtyBitFollowsThePage(t *testing.T) {
	m := New()
	m.TrackDirty = true
	for _, pn := range []uint32{3, 4, 5} {
		if err := m.WriteUint(PageAddr(pn), 4, 7); err != nil {
			t.Fatal(err)
		}
	}
	m.InstallPage(3, []byte{1})
	m.Drop(4)
	if d := m.DirtyPages(); len(d) != 1 || d[0] != 5 {
		t.Errorf("DirtyPages after InstallPage(3) and Drop(4) = %v, want [5]", d)
	}
	if _, err := m.Page(4); err != nil {
		t.Fatal(err)
	}
	if d := m.DirtyPages(); len(d) != 1 || d[0] != 5 {
		t.Errorf("a dropped page read back in is dirty: %v", d)
	}
}

// TestPageAndDirtyPage exercises the fast-path accessors: Page faults the
// page in and returns the resident array; DirtyPage additionally marks it
// dirty under TrackDirty, and writes through the returned array land in the
// page image.
func TestPageAndDirtyPage(t *testing.T) {
	m := New()
	m.TrackDirty = true
	pg, err := m.DirtyPage(7)
	if err != nil {
		t.Fatal(err)
	}
	pg[12] = 0xAB
	if d := m.DirtyPages(); len(d) != 1 || d[0] != 7 {
		t.Errorf("DirtyPages = %v, want [7]", d)
	}
	v, err := m.ReadUint(PageAddr(7)+12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xAB {
		t.Errorf("write through DirtyPage array invisible: read 0x%x", v)
	}

	rp, err := m.Page(9)
	if err != nil {
		t.Fatal(err)
	}
	if rp[0] != 0 {
		t.Error("fresh page should be zero-filled")
	}
	for _, d := range m.DirtyPages() {
		if d == 9 {
			t.Error("Page (read accessor) must not dirty the page")
		}
	}
	if m.PageData(9) == nil {
		t.Error("Page should have faulted page 9 in")
	}
}

// TestDigestZeroPageEquivalence: a page that was written and then zeroed
// again must digest identically to a never-present page — the word-wise
// zero scan must not be fooled by nonzero bytes anywhere in the page.
func TestDigestZeroPageEquivalence(t *testing.T) {
	empty := New().Digest()
	m := New()
	for _, off := range []uint32{0, 7, PageSize - 1} {
		if err := m.WriteUint(PageAddr(4)+off, 1, 0xFF); err != nil {
			t.Fatal(err)
		}
		if m.Digest() == empty {
			t.Errorf("nonzero byte at offset %d not reflected in digest", off)
		}
		if err := m.WriteUint(PageAddr(4)+off, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if m.Digest() != empty {
		t.Error("all-zero resident page must digest like an absent page")
	}
}

// TestDigestSeparatesPositions: the word-at-a-time hash must still tell where
// a byte sits — in which page, which word of it and which byte of the word —
// and what it is.
func TestDigestSeparatesPositions(t *testing.T) {
	seen := make(map[uint64]string)
	for _, pn := range []uint32{4, 5, 1 << 19} {
		for _, off := range []uint32{0, 1, 7, 8, 9, 4088, PageSize - 1} {
			for _, b := range []uint64{1, 0x80, 0xFF} {
				m := New()
				if err := m.WriteUint(PageAddr(pn)+off, 1, b); err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("byte %#x at page %d offset %d", b, pn, off)
				if other, dup := seen[m.Digest()]; dup {
					t.Errorf("%s digests like %s", where, other)
				}
				seen[m.Digest()] = where
			}
		}
	}
}

// TestSortedPageLists: DirtyPages and PresentPages return ascending page
// numbers regardless of map iteration order.
func TestSortedPageLists(t *testing.T) {
	m := New()
	m.TrackDirty = true
	for _, pn := range []uint32{90, 3, 511, 42, 7} {
		if err := m.WriteUint(PageAddr(pn), 4, uint64(pn)); err != nil {
			t.Fatal(err)
		}
	}
	for name, got := range map[string][]uint32{"dirty": m.DirtyPages(), "present": m.PresentPages()} {
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Errorf("%s pages not ascending: %v", name, got)
			}
		}
	}
}

// TestInstallPageOverwritesPrivatePageInPlace: installing over a page the
// memory already holds privately — every dirty page written back to the
// mobile — reuses that page instead of allocating a second one and orphaning
// the first. The content is replaced, a short payload's tail reads as zeroes,
// the page is clean, cached pointers are invalidated (Gen), and a checkpoint
// taken before still holds the old bytes: snapshots own their copies.
func TestInstallPageOverwritesPrivatePageInPlace(t *testing.T) {
	m := New()
	m.TrackDirty = true
	pn := PageNum(HeapBase)
	old := bytes.Repeat([]byte{0xab}, PageSize)
	if err := m.WriteBytes(PageAddr(pn), old); err != nil {
		t.Fatal(err)
	}
	if got := m.DirtyPages(); len(got) != 1 || got[0] != pn {
		t.Fatalf("DirtyPages before install = %v, want [%#x]", got, pn)
	}
	snap := m.Checkpoint()
	before, gen := &m.PageData(pn)[0], m.Gen()

	m.InstallPage(pn, []byte("short"))

	want := make([]byte, PageSize)
	copy(want, "short")
	if !bytes.Equal(m.PageData(pn), want) {
		t.Error("installed page is not the payload followed by zeroes")
	}
	if got := m.DirtyPages(); len(got) != 0 {
		t.Errorf("DirtyPages after install = %v, want none", got)
	}
	if m.Gen() == gen {
		t.Error("InstallPage did not bump Gen")
	}
	if &m.PageData(pn)[0] != before {
		t.Error("InstallPage over a private page allocated a second page")
	}
	if len(snap.Pages) != 1 || !snap.Pages[0].Dirty || !bytes.Equal(snap.Pages[0].Data, old) {
		t.Error("an earlier Checkpoint changed when its page was overwritten")
	}
	if allocs := testing.AllocsPerRun(10, func() { m.InstallPage(pn, old) }); allocs != 0 {
		t.Errorf("InstallPage over a private page: %.0f allocs, want 0", allocs)
	}
}
