package offrt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/mem"
)

// checkpointFixture is an overlay with every kind of state a checkpoint
// carries, over a four-page image: two image pages copied on write, two
// dropped (masked), two pages the image lacks, dirty and clean pages, and
// a journal and an output buffer. It returns the image and the encoded
// payload: [8 gen][8 faults][4 nMasked = 2][2 x 4 pn][4 nPages = 4] and
// then, at checkpointPageAt(i), page i's [4 pn][1 dirty][PageSize data].
func checkpointFixture(t testing.TB) (*mem.Image, []byte) {
	src := mem.New()
	heap := mem.PageNum(mem.HeapBase)
	for i := uint32(0); i < 4; i++ {
		src.InstallPage(heap+i, []byte{byte(i + 1)})
	}
	img := mem.Snapshot(src)
	src.Release()
	m := mem.NewOverlay(img)
	if err := m.WriteUint(mem.PageAddr(heap+5), 8, 0x55); err != nil { // written before tracking: clean
		t.Fatal(err)
	}
	m.TrackDirty = true
	for _, pn := range []uint32{heap, heap + 1, heap + 4} {
		if err := m.WriteUint(mem.PageAddr(pn)+8, 8, uint64(pn)); err != nil {
			t.Fatal(err)
		}
	}
	m.Drop(heap + 2)
	m.Drop(heap + 3)
	s := &Session{ioJournal: []string{"round 1\n", ""}, ep: endpoint{outBuf: []byte("partial")}}
	return img, s.encodeCheckpoint(&interp.State{SP: 0xdead_bee0, Mem: m.Checkpoint()})
}

// checkpointPageAt is the offset of page record i in checkpointFixture's
// payload.
func checkpointPageAt(i int) int { return 8 + 8 + 4 + 2*4 + 4 + i*(4+1+mem.PageSize) }

// checkpointCuts are the offsets of every field boundary inside
// checkpointFixture's payload: gen, faults, the masked count and each masked
// page, the page count, each page's pn, dirty flag and data, the journal
// count, each journal length and its bytes (the second entry is empty), and
// the output length. Only the output bytes ("partial") follow the last.
func checkpointCuts() []int {
	cuts := []int{0, 8, 16, 20, 24, 28}
	for i := range 4 {
		at := checkpointPageAt(i)
		cuts = append(cuts, at, at+4, at+5)
	}
	j := checkpointPageAt(4)
	return append(cuts, j, j+4, j+8, j+8+len("round 1\n"), j+20, j+24)
}

// TestCheckpointEncodingPinned: checkpointFixture encodes to the bytes the
// reflection-based encoder wrote before the codec moved onto the wire
// format's own append helpers (SHA-256 of the payload).
func TestCheckpointEncodingPinned(t *testing.T) {
	_, payload := checkpointFixture(t)
	const want = "875550ae4fc74a8c292d8a78368156e60053130e1c07c5259800e50f58f9e210"
	if got := fmt.Sprintf("%x", sha256.Sum256(payload)); len(payload) != 16467 || got != want {
		t.Fatalf("fixture payload: %d bytes, sha256 %s; want 16467 bytes, %s", len(payload), got, want)
	}
}

// checkpointEdit turns checkpointFixture's payload into bytes
// encodeCheckpoint never writes; want is what the decoder's error names.
type checkpointEdit struct {
	name, want string
	edit       func([]byte)
}

func nonCanonicalCheckpoints() []checkpointEdit {
	heap := mem.PageNum(mem.HeapBase)
	put := func(off int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[off:], v) }
	}
	return []checkpointEdit{
		{"masked repeated", "masked page", put(24, heap+2)},
		{"masked unsorted", "masked page", func(b []byte) { put(20, heap+3)(b); put(24, heap+2)(b) }},
		{"page repeated", "out of order", put(checkpointPageAt(1), heap)},
		{"page unsorted", "out of order", func(b []byte) { put(checkpointPageAt(0), heap+1)(b); put(checkpointPageAt(1), heap)(b) }},
		{"masked and private", "both masked and private", put(checkpointPageAt(1), heap+2)},
		{"dirty flag 2", "dirty flag 2", func(b []byte) { b[checkpointPageAt(0)+4] = 2 }},
	}
}

// TestDecodeCheckpointRejectsWhatEncodeNeverWrites: page numbers out of
// order or repeated (either list), a page both masked and private, and a
// dirty flag other than 0 or 1 are refused by name; the payload cut at any
// field boundary is refused; checkpointFixture's own payload decodes.
func TestDecodeCheckpointRejectsWhatEncodeNeverWrites(t *testing.T) {
	_, payload := checkpointFixture(t)
	cuts := checkpointCuts()
	if last := cuts[len(cuts)-1]; last+len("partial") != len(payload) {
		t.Fatalf("last cut %d + the output does not end the %d-byte payload", last, len(payload))
	}
	for _, cut := range cuts {
		if _, _, _, err := (&Session{}).decodeCheckpoint(&Message{Kind: MsgCheckpoint, Data: payload[:cut]}); err == nil {
			t.Errorf("payload cut at %d accepted", cut)
		}
	}
	for _, c := range nonCanonicalCheckpoints() {
		bad := bytes.Clone(payload)
		c.edit(bad)
		_, _, _, err := (&Session{}).decodeCheckpoint(&Message{Kind: MsgCheckpoint, Data: bad})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
	if _, _, _, err := (&Session{}).decodeCheckpoint(&Message{Kind: MsgCheckpoint, Data: payload}); err != nil {
		t.Fatalf("the fixture's own payload: %v", err)
	}
}

// FuzzCheckpoint: a checkpoint payload the decoder accepts is one the
// encoder writes. It re-encodes byte for byte; restored into a fresh overlay
// of the image and checkpointed again it still encodes to the same bytes;
// and a second overlay restored from the re-encoded payload digests the
// same as the first.
func FuzzCheckpoint(f *testing.F) {
	img, payload := checkpointFixture(f)
	f.Add(payload)
	for _, cut := range append(checkpointCuts(), checkpointPageAt(1)+3, len(payload)-1) {
		f.Add(payload[:cut])
	}
	for _, c := range nonCanonicalCheckpoints() {
		bad := bytes.Clone(payload)
		c.edit(bad)
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		msg := &Message{Kind: MsgCheckpoint, SP: 0xfff0, Data: payload}
		st, journal, outBuf, err := (&Session{}).decodeCheckpoint(msg)
		if err != nil {
			return
		}
		s := &Session{ioJournal: journal, ep: endpoint{outBuf: outBuf}}
		if re := s.encodeCheckpoint(st); !bytes.Equal(re, payload) {
			t.Fatalf("accepted payload re-encodes differently (%d bytes, was %d)", len(re), len(payload))
		}
		first := mem.NewOverlay(img)
		first.Restore(st.Mem)
		defer first.Release()
		if re := s.encodeCheckpoint(&interp.State{SP: st.SP, Mem: first.Checkpoint()}); !bytes.Equal(re, payload) {
			t.Fatal("restoring the payload and checkpointing again changed it")
		}
		again, _, _, err := s.decodeCheckpoint(&Message{Kind: MsgCheckpoint, SP: st.SP, Data: s.encodeCheckpoint(st)})
		if err != nil {
			t.Fatalf("re-encoded payload refused: %v", err)
		}
		second := mem.NewOverlay(img)
		second.Restore(again.Mem)
		defer second.Release()
		if a, b := first.Digest(), second.Digest(); a != b {
			t.Fatalf("restores of one payload digest %#x and %#x", a, b)
		}
	})
}
