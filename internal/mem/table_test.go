package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// refMemory is the page set as hash maps, kept as the reference the page
// table is held to: the same operations with the same contracts, written the
// obvious way. Every walk sorts.
type refMemory struct {
	pages      map[uint32]*[PageSize]byte
	dirty      map[uint32]bool
	masked     map[uint32]bool
	base       *Image
	fault      FaultHandler
	trackDirty bool
	faults     int
	gen        uint64
}

func newRef(base *Image, fault FaultHandler) *refMemory {
	return &refMemory{pages: map[uint32]*[PageSize]byte{}, dirty: map[uint32]bool{},
		masked: map[uint32]bool{}, base: base, fault: fault}
}

func (r *refMemory) basePage(pn uint32) (*[PageSize]byte, bool) {
	if r.base == nil || r.masked[pn] {
		return nil, false
	}
	return r.base.page(pn)
}

func (r *refMemory) getPage(pn uint32) (*[PageSize]byte, error) {
	if p, ok := r.pages[pn]; ok {
		return p, nil
	}
	if src, ok := r.basePage(pn); ok {
		p := new([PageSize]byte)
		*p = *src
		r.pages[pn] = p
		r.gen++
		return p, nil
	}
	var data []byte
	if r.fault != nil {
		var err error
		if data, err = r.fault(pn); err != nil {
			return nil, err
		}
		r.faults++
	}
	p := new([PageSize]byte)
	copy(p[:], data)
	r.pages[pn] = p
	delete(r.masked, pn)
	return p, nil
}

func (r *refMemory) read(pn uint32) (*[PageSize]byte, error) {
	if p, ok := r.pages[pn]; ok {
		return p, nil
	}
	if src, ok := r.basePage(pn); ok {
		return src, nil
	}
	return r.getPage(pn)
}

func (r *refMemory) write(addr uint32, data []byte) error {
	for off := 0; off < len(data); {
		pn := PageNum(addr + uint32(off))
		p, err := r.getPage(pn)
		if err != nil {
			return err
		}
		po := int(addr+uint32(off)) & (PageSize - 1)
		off += copy(p[po:], data[off:])
		if r.trackDirty {
			r.dirty[pn] = true
		}
	}
	return nil
}

func (r *refMemory) install(pn uint32, data []byte) {
	p := new([PageSize]byte)
	copy(p[:], data)
	r.pages[pn] = p
	delete(r.dirty, pn)
	delete(r.masked, pn)
	r.gen++
}

func (r *refMemory) drop(pn uint32) {
	delete(r.pages, pn)
	delete(r.dirty, pn)
	if r.base != nil && r.base.Has(pn) {
		r.masked[pn] = true
	}
	r.gen++
}

func (r *refMemory) clearDirty() {
	clear(r.dirty)
	r.gen++
}

func (r *refMemory) release() {
	clear(r.pages)
	clear(r.dirty)
	clear(r.masked)
	r.gen++
}

func sortedKeys[V any](m map[uint32]V) []uint32 {
	out := make([]uint32, 0, len(m))
	for pn := range m {
		out = append(out, pn)
	}
	slices.Sort(out)
	return out
}

func (r *refMemory) present() []uint32 {
	set := map[uint32]bool{}
	for pn := range r.pages {
		set[pn] = true
	}
	if r.base != nil {
		for _, pn := range r.base.Pages() {
			if !r.masked[pn] {
				set[pn] = true
			}
		}
	}
	return sortedKeys(set)
}

func (r *refMemory) dirtyPages() []uint32 {
	if len(r.dirty) == 0 {
		return nil
	}
	return sortedKeys(r.dirty)
}

func (r *refMemory) pageData(pn uint32) []byte {
	if p, ok := r.pages[pn]; ok {
		return p[:]
	}
	if src, ok := r.basePage(pn); ok {
		return src[:]
	}
	return nil
}

// digest is Memory.Digest's hash, byte-serial over the sorted present pages.
func (r *refMemory) digest(skip ...Range) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
pages:
	for _, pn := range r.present() {
		for _, rg := range skip {
			if lo := pn * PageSize; lo < rg.Hi && lo+PageSize > rg.Lo {
				continue pages
			}
		}
		data := r.pageData(pn)
		if bytes.Count(data, []byte{0}) == PageSize {
			continue
		}
		h = (h ^ uint64(pn)) * prime64
		h ^= h >> 32
		for i := 0; i < PageSize; i += 8 {
			h = (h ^ binary.LittleEndian.Uint64(data[i:])) * prime64
			h ^= h >> 32
		}
	}
	return h
}

func (r *refMemory) checkpoint() *Checkpoint {
	c := &Checkpoint{Faults: r.faults, Gen: r.gen}
	for _, pn := range sortedKeys(r.pages) {
		c.Pages = append(c.Pages, CheckpointPage{PN: pn, Dirty: r.dirty[pn], Data: slices.Clone(r.pages[pn][:])})
	}
	if len(r.masked) > 0 {
		c.Masked = sortedKeys(r.masked)
	}
	return c
}

func (r *refMemory) restore(c *Checkpoint) {
	r.release()
	for _, cp := range c.Pages {
		p := new([PageSize]byte)
		copy(p[:], cp.Data)
		r.pages[cp.PN] = p
		if cp.Dirty {
			r.dirty[cp.PN] = true
		}
	}
	for _, pn := range c.Masked {
		r.masked[pn] = true
	}
	r.faults, r.gen = c.Faults, c.Gen
}

// tablePages are the page numbers the differential test draws from: both
// ends of several leaves, leaves far apart, and the highest page number.
var tablePages = []uint32{0, 1, 2, 62, 63, 64, 65, 127, 128, 200, 4096, 4159,
	0x10000, 0x10001, 0x1003f, 0x10040, 0xfffff}

// faultData is the fault handler both memories of the differential test
// share: some pages exist on the "other machine", the rest zero-fill.
func faultData(pn uint32) ([]byte, error) {
	if pn%3 == 0 {
		return nil, nil
	}
	return []byte{byte(pn), byte(pn >> 8), 0x5a}, nil
}

// payload zeroes b but for a random word at a random offset, and returns
// it: page content as distinct as random bytes, at a fraction of their cost
// under -race.
func payload(rng *rand.Rand, b []byte) []byte {
	clear(b)
	if len(b) >= 8 {
		binary.LittleEndian.PutUint64(b[rng.Intn(len(b)/8)*8:], rng.Uint64())
	}
	return b
}

// tableImage snapshots a plain memory holding a random subset of
// tablePages: zero, duplicate and distinct pages.
func tableImage(rng *rand.Rand) *Image {
	src := New()
	for _, pn := range tablePages {
		switch rng.Intn(4) {
		case 0:
			src.InstallPage(pn, nil)
		case 1:
			src.InstallPage(pn, []byte{0xcd})
		case 2:
			src.InstallPage(pn, []byte{byte(pn), 1, 2, 3})
		}
	}
	return Snapshot(src)
}

// assertSame holds every observation of m to the reference's. Digests and
// checkpoints, which read or copy every page and dominate the test's time
// under -race, are compared when full is set.
func assertSame(t *testing.T, step string, m *Memory, r *refMemory, full bool) {
	t.Helper()
	if got, want := m.PresentPages(), r.present(); !slices.Equal(got, want) {
		t.Fatalf("%s: PresentPages %v, reference %v", step, got, want)
	}
	if got, want := m.DirtyPages(), r.dirtyPages(); !slices.Equal(got, want) {
		t.Fatalf("%s: DirtyPages %v, reference %v", step, got, want)
	}
	if full && m.Digest() != r.digest() {
		t.Fatalf("%s: Digest differs from the reference's", step)
	}
	for _, pn := range tablePages {
		if got, want := m.PageData(pn), r.pageData(pn); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: PageData(%#x) differs from the reference's", step, pn)
		}
	}
	if got, want := m.ResidentPrivateBytes(), len(r.pages)*PageSize; got != want {
		t.Fatalf("%s: ResidentPrivateBytes %d, reference %d", step, got, want)
	}
	if m.Gen() != r.gen || m.Faults != r.faults {
		t.Fatalf("%s: Gen %d and Faults %d, reference %d and %d", step, m.Gen(), m.Faults, r.gen, r.faults)
	}
	if !full {
		return
	}
	if got, want := m.Checkpoint(), r.checkpoint(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Checkpoint differs from the reference's", step)
	}
}

// TestTableMatchesMapReference runs seeded random operation sequences on a
// page-table Memory and on refMemory, plain and overlay, with and without a
// fault handler, and compares every observation after every operation —
// digests and checkpoints after every sixteenth and at the end: reads and writes (dirty tracking on and off), InstallPage, AdoptPage,
// Drop (masking image pages), ClearDirty, Release and reuse, and a
// Checkpoint/Restore round trip onto a fresh memory.
func TestTableMatchesMapReference(t *testing.T) {
	const ops = 250
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var img *Image
		if seed%3 != 0 {
			img = tableImage(rng)
		}
		var fault FaultHandler
		if seed%2 == 0 {
			fault = faultData
		}
		fresh := func() (*Memory, *refMemory) {
			m := New()
			if img != nil {
				m = NewOverlay(img)
			}
			m.Fault = fault
			return m, newRef(img, fault)
		}
		m, r := fresh()
		for op := 0; op < ops; op++ {
			pn := tablePages[rng.Intn(len(tablePages))]
			var step string
			full := op%16 == 15 || op == ops-1
			switch k := rng.Intn(20); {
			case k < 6:
				b := make([]byte, 1+rng.Intn(16))
				rng.Read(b)
				addr := PageAddr(pn) + uint32(rng.Intn(PageSize))
				if pn == 0xfffff { // the last page: stay inside it
					addr = PageAddr(pn)
				}
				step = fmt.Sprintf("write %#x", addr)
				if err := m.WriteBytes(addr, b); err != nil {
					t.Fatal(err)
				}
				if err := r.write(addr, b); err != nil {
					t.Fatal(err)
				}
			case k < 9:
				step = fmt.Sprintf("read page %#x", pn)
				got, err := m.Page(pn)
				if err != nil {
					t.Fatal(err)
				}
				want, err := r.read(pn)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Fatalf("seed %d op %d: %s: bytes differ", seed, op, step)
				}
			case k < 11:
				data := payload(rng, make([]byte, rng.Intn(PageSize+1)))
				step = fmt.Sprintf("install %#x", pn)
				m.InstallPage(pn, data)
				r.install(pn, data)
			case k == 11:
				p := AllocFrame()
				payload(rng, p[:])
				step = fmt.Sprintf("adopt %#x", pn)
				r.install(pn, p[:])
				m.AdoptPage(pn, p)
			case k < 15:
				step = fmt.Sprintf("drop %#x", pn)
				m.Drop(pn)
				r.drop(pn)
			case k == 15:
				step = "toggle TrackDirty"
				m.TrackDirty = !m.TrackDirty
				r.trackDirty = m.TrackDirty
			case k == 16:
				step = "ClearDirty"
				m.ClearDirty()
				r.clearDirty()
			case k == 17:
				step = "Release"
				m.Release()
				r.release()
			default:
				step = "Checkpoint/Restore"
				c := m.Checkpoint()
				track := m.TrackDirty
				m, r = fresh()
				m.TrackDirty, r.trackDirty = track, track
				m.Restore(c)
				r.restore(c)
			}
			assertSame(t, fmt.Sprintf("seed %d op %d (%s)", seed, op, step), m, r, full)
		}
		skip := []Range{{PageAddr(63), PageAddr(65)}, {PageAddr(0x10000), PageAddr(0x10001)}}
		if m.Digest(skip...) != r.digest(skip...) {
			t.Fatalf("seed %d: Digest with skip ranges differs from the reference's", seed)
		}
	}
}

// TestSharedImageReadersWriteNothing: any number of sessions read one Image
// at once — through overlays that copy-on-write, digest, list and drop its
// pages — and each sees exactly what a lone reader sees. Run under -race it
// shows that an image lookup writes nothing.
func TestSharedImageReadersWriteNothing(t *testing.T) {
	img := tableImage(rand.New(rand.NewSource(7)))
	lone := NewOverlay(img)
	want := lone.Digest()
	const readers = 8
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				m := NewOverlay(img)
				if m.Digest() != want || !slices.Equal(m.PresentPages(), img.Pages()) {
					t.Errorf("reader %d: a fresh overlay differs from a lone reader's", g)
					return
				}
				for _, pn := range img.Pages() {
					if _, err := m.Page(pn); err != nil {
						t.Error(err)
						return
					}
					_ = m.PageData(pn)
				}
				pn := img.Pages()[(g+round)%img.NumPages()]
				if err := m.WriteBytes(PageAddr(pn), []byte{byte(g)}); err != nil {
					t.Error(err)
					return
				}
				m.Drop(img.Pages()[round%img.NumPages()])
				m.Release()
				if m.Digest() != want {
					t.Errorf("reader %d: a released overlay differs from a lone reader's", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTableWalksAllocateNothing pins what the page table's bookkeeping costs
// the host: Digest and ClearDirty allocate nothing; a warm overlay that is
// bound, touches pages in several leaves and is released allocates nothing
// (its frames, leaves and table come back through their free lists); and a
// leaf that Drop empties goes back to its free list, so dropping every page
// and installing them again — what a server does each offload — allocates
// nothing either.
func TestTableWalksAllocateNothing(t *testing.T) {
	img := tableImage(rand.New(rand.NewSource(3)))
	m := NewOverlay(img)
	m.TrackDirty = true
	for _, pn := range tablePages[:10] {
		if err := m.WriteBytes(PageAddr(pn), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	skip := StackRanges()
	if n := testing.AllocsPerRun(20, func() { m.Digest(); m.Digest(skip...) }); n != 0 {
		t.Errorf("Digest: %.0f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(20, m.ClearDirty); n != 0 {
		t.Errorf("ClearDirty: %.0f allocs, want 0", n)
	}

	cycle := func() {
		ov := NewOverlay(img)
		for _, pn := range tablePages {
			if _, err := ov.DirtyPage(pn); err != nil {
				t.Fatal(err)
			}
		}
		ov.Release()
	}
	cycle() // warm the free lists
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("NewOverlay, touch %d pages, Release: %.0f allocs, want 0", len(tablePages), n)
	}

	server := New()
	page := make([]byte, PageSize)
	reinstall := func() {
		for _, pn := range server.PresentPages() {
			server.Drop(pn)
		}
		for _, pn := range tablePages {
			server.InstallPage(pn, page)
		}
	}
	reinstall()
	reinstall()
	if n := testing.AllocsPerRun(20, reinstall); n != 1 { // PresentPages' result
		t.Errorf("drop every page, install them again: %.0f allocs, want 1 (the page list)", n)
	}
}
