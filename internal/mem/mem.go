// Package mem implements the paged virtual memory substrate underneath the
// unified virtual address (UVA) space of Section 3.2 / Section 4.
//
// Each simulated machine owns one Memory: a sparse set of 4 KiB pages keyed
// by UVA page number. The server's Memory is created empty with a fault
// handler that fetches pages from the mobile device over the network —
// the paper's copy-on-demand. Writes set per-page dirty bits so
// finalization can send back only modified pages.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Page geometry. 4 KiB pages match the paper's mobile/server platforms.
const (
	PageSize  = 4096
	PageShift = 12
)

// UVA region bases. Both binaries agree on these because the Native
// Offloader compiler assigns them; the mobile and server stacks are kept
// apart by the stack reallocation of Section 3.3.
const (
	// GlobalsBase hosts referenced globals reallocated onto the UVA space.
	GlobalsBase uint32 = 0x1000_0000
	// HeapBase hosts u_malloc allocations.
	HeapBase uint32 = 0x2000_0000
	// HeapLimit bounds the UVA heap.
	HeapLimit uint32 = 0x4000_0000
	// LocalBase hosts machine-private globals; each machine's loader
	// places them independently, so the same global may sit at different
	// local addresses on the two machines (the bug that referenced-global
	// reallocation fixes).
	LocalBase uint32 = 0x0400_0000
	// MobileStackTop is the default stack top (ir.DefaultStackBase).
	MobileStackTop uint32 = 0x7FFF_F000
	// ServerStackTop is where the partitioner relocates the server stack.
	ServerStackTop uint32 = 0x5FFF_F000
	// FuncBaseMobile/FuncBaseServer are the per-machine function address
	// ranges; the same function gets a different address on each machine,
	// which is why function pointers must be mapped (Section 3.4).
	FuncBaseMobile uint32 = 0x0800_0000
	FuncBaseServer uint32 = 0x0C00_0000
)

// PageNum returns the page number containing addr.
func PageNum(addr uint32) uint32 { return addr >> PageShift }

// PageAddr returns the first address of page pn.
func PageAddr(pn uint32) uint32 { return pn << PageShift }

// FaultHandler supplies the content of an absent page. Returning nil data
// means "zero-fill" (fresh allocation); an error aborts execution.
type FaultHandler func(pn uint32) ([]byte, error)

// Memory is one machine's view of the UVA space.
//
// A Memory may be a plain page set (New) or a copy-on-write overlay over a
// shared read-only Image (NewOverlay). Overlay reads fall through to the
// image's pages without copying; the first write to a shared page copies it
// into the private page set, so many sessions instantiated from one program
// image pay resident bytes only for what they actually mutate.
type Memory struct {
	// pages is the private page set. A page is exactly PageSize bytes — one
	// allocator size class — so its dirty bit lives beside it, in dirty.
	pages map[uint32]*[PageSize]byte

	// dirty is the set of private pages written since the last ClearDirty
	// (maintained only while TrackDirty is on).
	dirty map[uint32]struct{}

	// base, when set, is the shared read-only image this memory overlays.
	// A page absent from the private set is served from base (unless
	// masked); base pages are never written in place.
	base *Image

	// masked records base pages this memory has dropped: a masked page
	// reads as absent (fault/zero-fill on next touch), exactly as if the
	// memory were a plain page set that dropped it.
	masked map[uint32]struct{}

	// Fault, when set, is consulted on first touch of an absent page
	// (copy-on-demand). When nil, absent pages zero-fill. A page served
	// from the base image is present, not absent: it never faults, and
	// copying it on first write is not a fault either.
	Fault FaultHandler

	// TrackDirty enables dirty-bit maintenance on writes.
	TrackDirty bool

	// Touch, when set, observes page accesses; the profiler uses it to
	// measure candidate memory footprints (Table 3 "Mem. Size"). Every access
	// through Memory's own methods reports here. The holder of a cached page
	// pointer (the interpreter's page caches, see Gen) reports a page when it
	// fills an entry and never on a hit: an observer that needs to see a page
	// again — the profiler, whenever a region opens — calls Invalidate, and
	// the next access to each page misses and is reported.
	Touch func(pn uint32)

	// Faults counts copy-on-demand faults served via Fault.
	Faults int

	// gen counts structural changes that can invalidate cached page
	// pointers: page installation (InstallPage, AdoptPage), removal (Drop,
	// Release), dirty-bit clearing (ClearDirty), and copy-on-write
	// materialization (the private copy supersedes the shared array a reader
	// may have cached). Every change that takes an array out of the page set
	// bumps it, and that array may serve another memory by the next access:
	// a cached pointer is good only while gen is unchanged. Faulting an
	// absent page in does not bump it — no resident array leaves. Invalidate
	// bumps it with no structural change.
	gen uint64
}

// New returns an empty memory with zero-fill fault behaviour.
func New() *Memory {
	return &Memory{pages: make(map[uint32]*[PageSize]byte)}
}

// NewOverlay returns a memory whose initial content is the shared image:
// reads are served from the image's pages directly, and the first write to
// an image page copies it into this memory (copy-on-write). The image is
// never modified.
func NewOverlay(img *Image) *Memory {
	return &Memory{pages: make(map[uint32]*[PageSize]byte), base: img}
}

// Image returns the shared base image this memory overlays, or nil for a
// plain memory.
func (m *Memory) Image() *Image { return m.base }

// ResidentPrivateBytes returns the bytes of private (per-memory) page
// storage: pages faulted, written (copy-on-write), or installed here, each
// a PageSize frame. Shared image pages read through the overlay cost
// nothing.
func (m *Memory) ResidentPrivateBytes() int { return len(m.pages) * PageSize }

// basePage returns the shared image's array for pn, if this memory is an
// overlay and the page is neither masked nor shadowed by a private page.
// Callers must check the private set first.
func (m *Memory) basePage(pn uint32) (*[PageSize]byte, bool) {
	if m.base == nil {
		return nil, false
	}
	if _, masked := m.masked[pn]; masked {
		return nil, false
	}
	return m.base.page(pn)
}

// getPage returns the private page for pn with write intent: a shared base
// page is copied into the private set first (copy-on-write, bumping gen —
// readers may have cached the shared array), and a truly absent page goes
// through the fault/zero-fill path.
func (m *Memory) getPage(pn uint32) (*[PageSize]byte, error) {
	if p, ok := m.pages[pn]; ok {
		if m.Touch != nil {
			m.Touch(pn)
		}
		return p, nil
	}
	if src, ok := m.basePage(pn); ok {
		p := AllocFrame()
		*p = *src
		m.pages[pn] = p
		m.gen++
		if m.Touch != nil {
			m.Touch(pn)
		}
		return p, nil
	}
	var data []byte
	if m.Fault != nil {
		var err error
		if data, err = m.Fault(pn); err != nil {
			return nil, fmt.Errorf("mem: page fault at 0x%x: %w", PageAddr(pn), err)
		}
		m.Faults++
	}
	p := AllocFrame()
	clear(p[copy(p[:], data):])
	m.pages[pn] = p
	delete(m.masked, pn)
	if m.Touch != nil {
		m.Touch(pn)
	}
	return p, nil
}

// readPage returns pn's resident array for reading: the private page if one
// exists, the shared image's array otherwise (no copy, no gen bump). A page
// absent from both materializes through the fault/zero-fill path, so
// a plain memory and an overlay observe identical present-page sets.
func (m *Memory) readPage(pn uint32) (*[PageSize]byte, error) {
	if p, ok := m.pages[pn]; ok {
		if m.Touch != nil {
			m.Touch(pn)
		}
		return p, nil
	}
	if src, ok := m.basePage(pn); ok {
		if m.Touch != nil {
			m.Touch(pn)
		}
		return src, nil
	}
	return m.getPage(pn)
}

// markDirty records a write to private page pn while TrackDirty is on.
func (m *Memory) markDirty(pn uint32) {
	if m.dirty == nil {
		m.dirty = make(map[uint32]struct{})
	}
	m.dirty[pn] = struct{}{}
}

// Gen returns the invalidation generation. A cached page pointer obtained
// from Page or DirtyPage stays valid (and, for DirtyPage, stays marked
// dirty) as long as Gen is unchanged and — for write caches — TrackDirty has
// not been toggled. An access made through such a pointer bypasses Touch;
// Page and DirtyPage reported the page when the pointer was obtained, and
// Invalidate makes every holder obtain it again.
func (m *Memory) Gen() uint64 { return m.gen }

// Invalidate advances the generation and changes nothing else: every cached
// page pointer goes stale, so the next access to each page comes back through
// Page or DirtyPage — and is reported to Touch.
func (m *Memory) Invalidate() { m.gen++ }

// Page returns the resident data array of page pn, faulting it in as
// needed. The pointer aliases live memory: it observes later writes and is
// invalidated when Gen changes. On an overlay the array may be the shared
// image's page — callers must treat it as read-only and write through
// DirtyPage/WriteBytes, which copy-on-write first.
func (m *Memory) Page(pn uint32) (*[PageSize]byte, error) {
	return m.readPage(pn)
}

// DirtyPage is Page plus dirty marking: when TrackDirty is on, the page is
// marked dirty up front, so the caller may keep writing through the
// returned array without further bookkeeping (until Gen changes or
// TrackDirty is toggled).
func (m *Memory) DirtyPage(pn uint32) (*[PageSize]byte, error) {
	p, err := m.getPage(pn)
	if err != nil {
		return nil, err
	}
	if m.TrackDirty {
		m.markDirty(pn)
	}
	return p, nil
}

// PageData returns page pn's content as a read-only view of the resident
// array — the private page if there is one, else the shared image's — or nil
// if the page is absent (it would read as zeroes). It does not fault, touch,
// or dirty anything — it is the transfer-side read used when serving another
// machine's copy-on-demand request. The view aliases live memory: the caller
// encodes, compresses or copies it before this memory's machine runs again,
// and never writes through it.
func (m *Memory) PageData(pn uint32) []byte {
	if p, ok := m.pages[pn]; ok {
		return p[:]
	}
	if src, ok := m.basePage(pn); ok {
		return src[:]
	}
	return nil
}

// InstallPage overwrites page pn with data (length <= PageSize, the rest of
// the page reads as zeroes), marking it clean. Used for prefetch and for a
// write-back that arrived uncompressed. The page owns its bytes — data is
// copied, into the existing private page when there is one — so the caller
// may recycle data at once; cached page pointers are invalidated either way
// (Gen).
func (m *Memory) InstallPage(pn uint32, data []byte) {
	p, ok := m.pages[pn]
	if !ok {
		p = AllocFrame()
		m.pages[pn] = p
	}
	clear(p[copy(p[:], data):])
	delete(m.dirty, pn)
	delete(m.masked, pn)
	m.gen++
}

// AdoptPage makes frame p private page pn, marking it clean: InstallPage
// without the copy. p comes from AllocFrame and the caller gives it up —
// from here on the memory owns it and gives it back to the pool when the
// page is dropped, replaced or released. The private page p replaces goes
// back to the pool now; cached page pointers are invalidated (Gen).
func (m *Memory) AdoptPage(pn uint32, p *[PageSize]byte) {
	if old, ok := m.pages[pn]; ok && old != p {
		FreeFrame(old)
	}
	m.pages[pn] = p
	delete(m.dirty, pn)
	delete(m.masked, pn)
	m.gen++
}

// ReadBytes copies size bytes at addr into a fresh slice, faulting pages in
// as needed.
func (m *Memory) ReadBytes(addr uint32, size int) ([]byte, error) {
	out := make([]byte, size)
	off := 0
	for off < size {
		pn := PageNum(addr + uint32(off))
		p, err := m.readPage(pn)
		if err != nil {
			return nil, err
		}
		po := int(addr+uint32(off)) & (PageSize - 1)
		n := copy(out[off:], p[po:])
		off += n
	}
	return out, nil
}

// WriteBytes stores data at addr, faulting pages in and dirtying them.
func (m *Memory) WriteBytes(addr uint32, data []byte) error {
	return m.Fill(addr, len(data), func(dst []byte) error {
		data = data[copy(dst, data):]
		return nil
	})
}

// Fill stores the n bytes at addr that fill writes, a page at a time: it
// faults each page in (reporting it to Touch), hands fill the page's part of
// the range to write, then marks the page dirty, in address order. A fill
// error ends the store.
func (m *Memory) Fill(addr uint32, n int, fill func(dst []byte) error) error {
	for off := 0; off < n; {
		pn := PageNum(addr + uint32(off))
		p, err := m.getPage(pn)
		if err != nil {
			return err
		}
		po := int(addr+uint32(off)) & (PageSize - 1)
		k := min(n-off, PageSize-po)
		if err := fill(p[po : po+k]); err != nil {
			return err
		}
		if m.TrackDirty {
			m.markDirty(pn)
		}
		off += k
	}
	return nil
}

// ReadUint reads a size-byte little-endian unsigned integer at addr.
// Byte-order translation for big-endian machines happens in the interpreter
// (it is compiler-inserted code in the paper), so Memory itself is
// order-neutral and always uses the standard (little-endian) order.
func (m *Memory) ReadUint(addr uint32, size int) (uint64, error) {
	b, err := m.ReadBytes(addr, size)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// WriteUint stores a size-byte little-endian unsigned integer at addr.
func (m *Memory) WriteUint(addr uint32, size int, v uint64) error {
	b := make([]byte, size)
	for i := 0; i < size; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return m.WriteBytes(addr, b)
}

// DirtyPages returns the sorted page numbers written since the last
// ClearDirty.
func (m *Memory) DirtyPages() []uint32 {
	var out []uint32
	for pn := range m.dirty {
		out = append(out, pn)
	}
	slices.Sort(out)
	return out
}

// ClearDirty resets all dirty bits.
func (m *Memory) ClearDirty() {
	clear(m.dirty)
	m.gen++
}

// PresentPages returns the sorted page numbers currently resident: the
// private pages plus any unmasked base image pages.
func (m *Memory) PresentPages() []uint32 {
	out := make([]uint32, 0, len(m.pages))
	for pn := range m.pages {
		out = append(out, pn)
	}
	if m.base != nil {
		for _, pn := range m.base.Pages() {
			if _, priv := m.pages[pn]; priv {
				continue
			}
			if _, masked := m.masked[pn]; masked {
				continue
			}
			out = append(out, pn)
		}
	}
	slices.Sort(out)
	return out
}

// Drop discards page pn (used when a server process terminates without
// keeping offloading data, Section 4 finalization); a private page's frame
// goes back to the pool. On an overlay a base image page is masked rather
// than removed from the shared image, so the next touch faults or
// zero-fills exactly as on a plain memory.
func (m *Memory) Drop(pn uint32) {
	if p, ok := m.pages[pn]; ok {
		FreeFrame(p)
		delete(m.pages, pn)
	}
	delete(m.dirty, pn)
	if m.base != nil && m.base.Has(pn) {
		if m.masked == nil {
			m.masked = make(map[uint32]struct{})
		}
		m.masked[pn] = struct{}{}
	}
	m.gen++
}

// Release ends a run's use of the memory: every private page's frame goes
// back to the pool — an overlay's image pages are shared and are not the
// memory's to give — and the dirty and masked sets empty, so the memory
// reads as freshly made. Gen advances. Whatever the caller still needs from
// the memory (a Digest, a page's bytes) it takes before Release.
func (m *Memory) Release() {
	for _, p := range m.pages {
		FreeFrame(p)
	}
	clear(m.pages)
	clear(m.dirty)
	clear(m.masked)
	m.gen++
}

// Range is a half-open byte-address interval [Lo, Hi), used to exclude
// regions from Digest.
type Range struct{ Lo, Hi uint32 }

// StackBytes is the depth of each machine's run-time stack region.
const StackBytes = 8 << 20

// StackRanges covers both machines' stack regions. After a program
// returns, everything below the stack tops is dead residue whose bytes
// depend on where each frame ran (mobile vs server stack addresses), so
// semantic memory comparisons exclude it.
func StackRanges() []Range {
	return []Range{
		{MobileStackTop - StackBytes, MobileStackTop},
		{ServerStackTop - StackBytes, ServerStackTop},
	}
}

// Digest returns a hash of the memory image, iterating present pages in
// sorted order and skipping all-zero pages — an absent page and a zero-filled
// one hash identically, matching the copy-on-demand zero-fill semantics. Two
// runs that end in the same logical memory state digest equal even if they
// faulted different page sets in. Pages overlapping any skip range are left
// out of the hash. The value is good for comparing two memories and nothing
// else: it is not stable across versions of this package.
//
// The hash is FNV-1a's xor-then-multiply taken a little-endian word at a
// time, with a xor-shift after each multiply to carry the high bits back
// down; every step is a bijection of the running hash, so two images that
// differ in one word digest differently. On an overlay, untouched base image
// pages are hashed through the shared array directly — digesting never copies
// them into the private set — and the canonical shared zero page is
// recognized by pointer, without reading it.
func (m *Memory) Digest(skip ...Range) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
pages:
	for _, pn := range m.PresentPages() {
		lo := pn * PageSize
		for _, r := range skip {
			if lo < r.Hi && lo+PageSize > r.Lo {
				continue pages
			}
		}
		data, ok := m.pages[pn]
		if !ok {
			data, ok = m.basePage(pn)
		}
		// Image pages are content-deduped: all-zero ones alias the canonical
		// zero page. Private pages are mutable and have to be scanned.
		if !ok || data == &zeroPage || pageIsZero(data) {
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
