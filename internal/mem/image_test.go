package mem

import (
	"bytes"
	"testing"
)

// buildSourceMemory lays out a small "program image": one page of nonzero
// init data, two identical nonzero pages (dedup candidates), and two
// all-zero pages (canonical zero-page candidates).
func buildSourceMemory(t *testing.T) *Memory {
	t.Helper()
	m := New()
	if err := m.WriteBytes(PageAddr(10), []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	same := bytes.Repeat([]byte{0xCD}, PageSize)
	if err := m.WriteBytes(PageAddr(11), same); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(PageAddr(12), same); err != nil {
		t.Fatal(err)
	}
	// Touch two pages without writing nonzero bytes: present but all-zero.
	if _, err := m.Page(13); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Page(14); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSnapshotDedup(t *testing.T) {
	src := buildSourceMemory(t)
	img := Snapshot(src)

	if got, want := img.NumPages(), 5; got != want {
		t.Fatalf("NumPages = %d, want %d", got, want)
	}
	if got, want := img.Bytes(), 5*PageSize; got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
	// Unique backing: init page + one copy of the repeated page + the
	// canonical zero page = 3 pages.
	if got, want := img.UniqueBytes(), 3*PageSize; got != want {
		t.Errorf("UniqueBytes = %d, want %d", got, want)
	}
	p11, _ := img.page(11)
	p12, _ := img.page(12)
	if p11 != p12 {
		t.Error("identical pages should share one backing array")
	}
	p13, _ := img.page(13)
	p14, _ := img.page(14)
	if p13 != &zeroPage || p14 != &zeroPage {
		t.Error("all-zero pages should alias the canonical zero page")
	}

	// The image is a copy: mutating the source must not leak through.
	if err := src.WriteUint(PageAddr(10), 1, 0xFF); err != nil {
		t.Fatal(err)
	}
	p10, _ := img.page(10)
	if p10[0] != 1 {
		t.Error("image pages must be copies, not aliases of the source")
	}
}

func TestOverlayReadThrough(t *testing.T) {
	img := Snapshot(buildSourceMemory(t))
	ov := NewOverlay(img)

	b, err := ov.ReadBytes(PageAddr(10), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, []byte{1, 2, 3, 4}) {
		t.Errorf("read through overlay = %v, want image bytes", b)
	}
	if ov.ResidentPrivateBytes() != 0 {
		t.Errorf("reads of image pages must not materialize private copies; resident = %d",
			ov.ResidentPrivateBytes())
	}
	// Page on an image page returns the shared array itself.
	pg, err := ov.Page(11)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := img.page(11); pg != want {
		t.Error("Page on an untouched image page should return the shared array")
	}
	if ov.ResidentPrivateBytes() != 0 {
		t.Error("Page on an image page must not copy it")
	}
}

func TestOverlayCopyOnWrite(t *testing.T) {
	img := Snapshot(buildSourceMemory(t))
	ov := NewOverlay(img)

	g0 := ov.Gen()
	if err := ov.WriteUint(PageAddr(11)+5, 1, 0x7E); err != nil {
		t.Fatal(err)
	}
	if ov.Gen() == g0 {
		t.Error("copy-on-write must bump Gen: readers may cache the shared array")
	}
	if ov.ResidentPrivateBytes() != PageSize {
		t.Errorf("one written page should cost one private page, got %d bytes",
			ov.ResidentPrivateBytes())
	}
	// Private copy carries the image content plus the write.
	v, err := ov.ReadUint(PageAddr(11)+5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x7E {
		t.Errorf("read-back = 0x%x, want 0x7E", v)
	}
	v, err = ov.ReadUint(PageAddr(11)+6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xCD {
		t.Errorf("private copy lost image content: byte 6 = 0x%x, want 0xCD", v)
	}
	// The shared image (and a sibling overlay) is untouched.
	src, _ := img.page(11)
	if src[5] != 0xCD {
		t.Error("write leaked into the shared image")
	}
	sib := NewOverlay(img)
	v, err = sib.ReadUint(PageAddr(11)+5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xCD {
		t.Error("write visible in a sibling overlay")
	}
	// Faults counter: CoW is not a copy-on-demand fault.
	if ov.Faults != 0 {
		t.Errorf("CoW counted as fault: Faults = %d", ov.Faults)
	}
}

func TestOverlayPresentAndDigest(t *testing.T) {
	src := buildSourceMemory(t)
	img := Snapshot(src)
	ov := NewOverlay(img)

	// Fresh overlay: present set and digest match the source bit for bit,
	// and digesting must not materialize private pages (the zero-page fast
	// path recognizes the canonical zero page by pointer).
	wantPresent := src.PresentPages()
	gotPresent := ov.PresentPages()
	if len(gotPresent) != len(wantPresent) {
		t.Fatalf("PresentPages = %v, want %v", gotPresent, wantPresent)
	}
	for i := range wantPresent {
		if gotPresent[i] != wantPresent[i] {
			t.Fatalf("PresentPages = %v, want %v", gotPresent, wantPresent)
		}
	}
	if got, want := ov.Digest(), src.Digest(); got != want {
		t.Errorf("overlay digest 0x%x != source digest 0x%x", got, want)
	}
	if ov.ResidentPrivateBytes() != 0 {
		t.Errorf("Digest faulted %d private bytes on a fresh overlay",
			ov.ResidentPrivateBytes())
	}

	// A CoW'd-but-unchanged page keeps the digest identical.
	pg, err := ov.DirtyPage(10)
	if err != nil {
		t.Fatal(err)
	}
	_ = pg
	if got, want := ov.Digest(), src.Digest(); got != want {
		t.Errorf("digest changed after content-preserving CoW: 0x%x != 0x%x", got, want)
	}
}

func TestOverlayDropMasksBase(t *testing.T) {
	img := Snapshot(buildSourceMemory(t))
	ov := NewOverlay(img)

	ov.Drop(10)
	for _, pn := range ov.PresentPages() {
		if pn == 10 {
			t.Error("dropped image page still in PresentPages")
		}
	}
	if got := ov.PageData(10); got != nil {
		t.Error("PageData of a dropped image page should be nil (absent)")
	}
	// Next touch zero-fills (no fault handler), exactly like a plain
	// memory that dropped the page.
	v, err := ov.ReadUint(PageAddr(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("re-touched dropped page = 0x%x, want zero-fill", v)
	}
	// Dropping a CoW'd page also re-masks the base.
	if err := ov.WriteUint(PageAddr(11), 1, 9); err != nil {
		t.Fatal(err)
	}
	ov.Drop(11)
	v, err = ov.ReadUint(PageAddr(11), 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("dropped CoW page re-read = 0x%x, want zero-fill (not image content)", v)
	}
}

func TestOverlayFaultHandlerScope(t *testing.T) {
	img := Snapshot(buildSourceMemory(t))
	ov := NewOverlay(img)
	fetched := []uint32{}
	ov.Fault = func(pn uint32) ([]byte, error) {
		fetched = append(fetched, pn)
		return []byte{0xAA}, nil
	}

	// Image pages never consult the fault handler.
	if _, err := ov.ReadBytes(PageAddr(10), 1); err != nil {
		t.Fatal(err)
	}
	if err := ov.WriteUint(PageAddr(11), 1, 1); err != nil {
		t.Fatal(err)
	}
	if len(fetched) != 0 {
		t.Fatalf("image-backed pages faulted: %v", fetched)
	}
	// Absent and dropped pages do.
	if _, err := ov.ReadBytes(PageAddr(99), 1); err != nil {
		t.Fatal(err)
	}
	ov.Drop(10)
	if _, err := ov.ReadBytes(PageAddr(10), 1); err != nil {
		t.Fatal(err)
	}
	if len(fetched) != 2 || fetched[0] != 99 || fetched[1] != 10 {
		t.Fatalf("fault set = %v, want [99 10]", fetched)
	}
	if ov.Faults != 2 {
		t.Errorf("Faults = %d, want 2", ov.Faults)
	}
}

func TestOverlayDirtyTracking(t *testing.T) {
	img := Snapshot(buildSourceMemory(t))
	ov := NewOverlay(img)
	ov.TrackDirty = true

	if err := ov.WriteUint(PageAddr(11), 1, 7); err != nil {
		t.Fatal(err)
	}
	if d := ov.DirtyPages(); len(d) != 1 || d[0] != 11 {
		t.Errorf("DirtyPages = %v, want [11]", d)
	}
	ov.ClearDirty()
	if d := ov.DirtyPages(); len(d) != 0 {
		t.Errorf("DirtyPages after ClearDirty = %v", d)
	}
}

func TestOverlayReset(t *testing.T) {
	img := Snapshot(buildSourceMemory(t))
	ov := NewOverlay(img)
	if err := ov.WriteUint(PageAddr(11), 1, 7); err != nil {
		t.Fatal(err)
	}
	ov.Reset()
	if ov.Image() != nil {
		t.Error("Reset should detach the base image")
	}
	if len(ov.PresentPages()) != 0 {
		t.Errorf("Reset left pages present: %v", ov.PresentPages())
	}
}
