// Shared program images: the immutable memory substrate under the
// compile-once / instantiate-many split. An Image captures the initial
// memory of a bound program (code-adjacent data, rodata, initialized
// globals) as a read-only, content-deduplicated page set. Many Memory
// overlays (one per session) read through a single Image; the first write
// to a shared page copies it into the session's private overlay
// (copy-on-write), so per-session resident bytes shrink to just the pages
// the session actually mutates.
package mem

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// zeroPage is the canonical all-zero page every Image shares: identical
// zero pages deduplicate across images and sessions to this one array.
// It is handed out read-only and must never be written.
var zeroPage [PageSize]byte

// Image is an immutable snapshot of a memory's pages. It is safe for
// concurrent readers; nothing mutates it after Snapshot returns.
// Identical pages (by content) within the image share one backing array,
// and all-zero pages share the package-wide canonical zero page.
type Image struct {
	pages map[uint32]*[PageSize]byte
	pns   []uint32 // sorted page numbers (internal; treated read-only)
	// uniqueBytes is the deduplicated backing size: one PageSize per
	// distinct content (the canonical zero page counts once, at most).
	uniqueBytes int
}

// Snapshot freezes m's current resident pages into an Image. The source
// memory must be a plain (non-overlay) memory; its pages are copied, so
// later writes to m do not affect the image.
func Snapshot(m *Memory) *Image {
	img := &Image{pages: make(map[uint32]*[PageSize]byte, len(m.pages))}
	// byContent dedups page arrays: hash -> candidate arrays.
	byContent := make(map[uint64][]*[PageSize]byte)
	zeroSeen := false
	for pn, p := range m.pages {
		if pageIsZero(p) {
			img.pages[pn] = &zeroPage
			zeroSeen = true
			continue
		}
		h := pageHash(p)
		var arr *[PageSize]byte
		for _, cand := range byContent[h] {
			if bytes.Equal(cand[:], p[:]) {
				arr = cand
				break
			}
		}
		if arr == nil {
			arr = new([PageSize]byte)
			*arr = *p
			byContent[h] = append(byContent[h], arr)
			img.uniqueBytes += PageSize
		}
		img.pages[pn] = arr
	}
	if zeroSeen {
		img.uniqueBytes += PageSize
	}
	img.pns = make([]uint32, 0, len(img.pages))
	for pn := range img.pages {
		img.pns = append(img.pns, pn)
	}
	slices.Sort(img.pns)
	return img
}

// page returns the read-only backing array of pn, if the image has it.
func (im *Image) page(pn uint32) (*[PageSize]byte, bool) {
	p, ok := im.pages[pn]
	return p, ok
}

// Has reports whether the image contains page pn.
func (im *Image) Has(pn uint32) bool {
	_, ok := im.pages[pn]
	return ok
}

// Pages returns the image's page numbers in ascending order. The returned
// slice is shared; callers must not modify it.
func (im *Image) Pages() []uint32 { return im.pns }

// NumPages returns the number of pages the image maps.
func (im *Image) NumPages() int { return len(im.pages) }

// Bytes returns the logical size of the image (mapped pages x PageSize).
func (im *Image) Bytes() int { return len(im.pages) * PageSize }

// UniqueBytes returns the deduplicated backing size: identical pages are
// stored once, and all-zero pages cost one canonical page in total.
func (im *Image) UniqueBytes() int { return im.uniqueBytes }

// pageIsZero scans a page word-wise for any set bit.
func pageIsZero(p *[PageSize]byte) bool {
	for i := 0; i < PageSize; i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) != 0 {
			return false
		}
	}
	return true
}

// pageHash is FNV-1a over the page content, used only to bucket dedup
// candidates (full content comparison confirms).
func pageHash(p *[PageSize]byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
