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
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
)

// zeroPage is the canonical all-zero page every Image shares: identical
// zero pages deduplicate across images and sessions to this one array.
// It is handed out read-only and must never be written.
var zeroPage [PageSize]byte

// Image is an immutable snapshot of a memory's pages. It is safe for
// concurrent readers; nothing mutates it after Snapshot returns, and a
// lookup writes nothing. Identical pages (by content) within the image share
// one backing array, and all-zero pages share the package-wide canonical
// zero page.
type Image struct {
	tab table // leaves with frames and present bits only
	// uniqueBytes is the deduplicated backing size: one PageSize per
	// distinct content (the canonical zero page counts once, at most).
	uniqueBytes int
}

// dedupEntry is one distinct page content of a Snapshot in progress.
type dedupEntry struct {
	hash uint64
	arr  *[PageSize]byte
}

// Snapshot freezes m's current resident pages into an Image. The source
// memory must be a plain (non-overlay) memory; its pages are copied, so
// later writes to m do not affect the image.
func Snapshot(m *Memory) *Image {
	img := &Image{}
	// distinct holds one array per content seen so far, sorted by hash.
	var distinct []dedupEntry
	zeroSeen := false
	for _, src := range m.leaves() {
		l := &leaf{key: src.key, present: src.present}
		img.tab.leaves = append(img.tab.leaves, l)
		for w := src.present; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			p := src.frames[i]
			if pageIsZero(p) {
				l.frames[i] = &zeroPage
				zeroSeen = true
				continue
			}
			h := pageHash(p)
			at, _ := slices.BinarySearchFunc(distinct, h, func(e dedupEntry, h uint64) int { return cmp.Compare(e.hash, h) })
			var arr *[PageSize]byte
			for _, e := range distinct[at:] {
				if e.hash != h {
					break
				}
				if *e.arr == *p {
					arr = e.arr
					break
				}
			}
			if arr == nil {
				arr = new([PageSize]byte)
				*arr = *p
				distinct = slices.Insert(distinct, at, dedupEntry{h, arr})
				img.uniqueBytes += PageSize
			}
			l.frames[i] = arr
		}
	}
	if zeroSeen {
		img.uniqueBytes += PageSize
	}
	return img
}

// page returns the read-only backing array of pn, if the image has it.
func (im *Image) page(pn uint32) (*[PageSize]byte, bool) {
	l := im.tab.find(pn)
	if l == nil {
		return nil, false
	}
	p := l.frames[pn&leafMask]
	return p, p != nil
}

// Has reports whether the image contains page pn.
func (im *Image) Has(pn uint32) bool {
	_, ok := im.page(pn)
	return ok
}

// Pages returns the image's page numbers in ascending order.
func (im *Image) Pages() []uint32 {
	out := make([]uint32, 0, im.NumPages())
	for _, l := range im.tab.leaves {
		out = appendBits(out, l.key, l.present)
	}
	return out
}

// NumPages returns the number of pages the image maps.
func (im *Image) NumPages() int {
	n := 0
	for _, l := range im.tab.leaves {
		n += bits.OnesCount64(l.present)
	}
	return n
}

// Bytes returns the logical size of the image (mapped pages x PageSize).
func (im *Image) Bytes() int { return im.NumPages() * PageSize }

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
