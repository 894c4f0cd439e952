package offrt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/netsim"
)

func TestMessageRoundTrip(t *testing.T) {
	page := make([]byte, mem.PageSize)
	for i := range page {
		page[i] = byte(i * 7)
	}
	msgs := []*Message{
		{Kind: MsgOffloadRequest, TaskID: 3, SP: 0x7FFF_E000,
			Args:      []uint64{1, 0xDEADBEEF, 1 << 62},
			PageTable: []uint32{1, 2, 99},
			Pages:     []PageRecord{{PN: 5, Data: page}}},
		{Kind: MsgPageRequest, Addr: 0x2000_4000},
		{Kind: MsgPageData, Pages: []PageRecord{{PN: 7, Data: page}}},
		{Kind: MsgRemoteWrite, Data: []byte("score 42\n")},
		{Kind: MsgRemoteOpen, Data: []byte("cells.net")},
		{Kind: MsgRemoteOpenResp, FD: 3},
		{Kind: MsgRemoteRead, FD: 3, N: 512},
		{Kind: MsgRemoteReadResp, Data: bytes.Repeat([]byte{9}, 512)},
		{Kind: MsgRemoteClose, FD: 3},
		{Kind: MsgFinalize, TaskID: 3, Ret: 0xFFFF_FFFF_FFFF_FFFE,
			Pages: []PageRecord{{PN: 8, Data: page}, {PN: 12, Data: page}}},
		{Kind: MsgShutdown},
	}
	for _, m := range msgs {
		enc := m.Encode()
		if m.WireSize() != int64(len(enc)) {
			t.Errorf("%v: WireSize %d, encoded %d bytes", m.Kind, m.WireSize(), len(enc))
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if got.Kind != m.Kind || got.TaskID != m.TaskID || got.SP != m.SP ||
			got.Addr != m.Addr || got.FD != m.FD || got.N != m.N || got.Ret != m.Ret {
			t.Errorf("%v: scalar fields drifted: %+v vs %+v", m.Kind, got, m)
		}
		if len(got.Args) != len(m.Args) || len(got.PageTable) != len(m.PageTable) ||
			len(got.Pages) != len(m.Pages) || !bytes.Equal(got.Data, m.Data) {
			t.Errorf("%v: payload drifted", m.Kind)
		}
		for i := range m.Pages {
			if got.Pages[i].PN != m.Pages[i].PN || !bytes.Equal(got.Pages[i].Data, m.Pages[i].Data) {
				t.Errorf("%v: page %d drifted", m.Kind, i)
			}
		}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	check := func(task int32, sp uint32, args []uint64, pt []uint32, data []byte) bool {
		if len(args) > 256 {
			args = args[:256]
		}
		if len(pt) > 1024 {
			pt = pt[:1024]
		}
		m := &Message{Kind: MsgOffloadRequest, TaskID: task, SP: sp,
			Args: args, PageTable: pt, Data: data}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		if got.TaskID != task || got.SP != sp || len(got.Args) != len(args) ||
			len(got.PageTable) != len(pt) || !bytes.Equal(got.Data, data) {
			return false
		}
		for i := range args {
			if got.Args[i] != args[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	m := &Message{Kind: MsgFinalize, Ret: 7}
	enc := m.Encode()

	if _, err := Decode(enc[:2]); err == nil {
		t.Error("short buffer accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF // break the length prefix
	if _, err := Decode(bad); err == nil {
		t.Error("broken length prefix accepted")
	}
	trunc := enc[:len(enc)-3]
	if _, err := Decode(trunc); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestCompressDecompressPages(t *testing.T) {
	// A repetitive page compresses well and restores exactly.
	page := bytes.Repeat([]byte{0x11, 0x22}, mem.PageSize/2)
	m := &Message{Kind: MsgFinalize, PageTable: []uint32{4, 9},
		Pages: []PageRecord{{PN: 4, Data: page}, {PN: 9, Data: page}}}
	raw, err := m.CompressPages()
	if err != nil {
		t.Fatal(err)
	}
	if raw != 2*(mem.PageSize+4) {
		t.Errorf("raw size %d, want %d", raw, 2*(mem.PageSize+4))
	}
	if int64(len(m.Data)) >= raw {
		t.Errorf("compression did not shrink repetitive pages: %d >= %d", len(m.Data), raw)
	}
	// Cross the wire and restore.
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	pages, err := got.DecompressPages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 2 || pages[0].PN != 4 || pages[1].PN != 9 {
		t.Fatalf("page set drifted: %+v", pages)
	}
	for _, p := range pages {
		if !bytes.Equal(p.Data, page) {
			t.Error("page content drifted through compression")
		}
	}
}

// TestRecyclerHoldsAcrossCollections: what the page path recycles must not
// depend on the collector. A value put back is the next one taken however
// many collections ran in between (a sync.Pool is empty after two), the list
// is last-in first-out, and beyond recyclerCap a put is dropped.
func TestRecyclerHoldsAcrossCollections(t *testing.T) {
	var r recycler[[]byte]
	if r.get() != nil {
		t.Fatal("an empty recycler returned a value")
	}
	vals := make([]*[]byte, recyclerCap+2)
	for i := range vals {
		vals[i] = new([]byte)
		r.put(vals[i])
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	for i := recyclerCap - 1; i >= 0; i-- {
		if got := r.get(); got != vals[i] {
			t.Fatalf("get after three collections: not the value put at position %d", i)
		}
	}
	if r.get() != nil {
		t.Fatalf("recycler held more than recyclerCap = %d values", recyclerCap)
	}
}

// TestCompressPagesPooledWriterIdentical: CompressPages takes its deflate
// writer from a pool and streams each record into it in pieces (page number,
// page bytes, zero padding), and what comes out must be, byte for byte, what
// a fresh writer makes of the concatenated records in one Write — the
// compressed size is charged to the link, so a drift would move every
// simulated transfer time. Each subtest
// pushes a run of unlike page sets (sparse, dense, short pages that need
// padding, a large set right before a small one) through the pool back to
// back; the subtests run in parallel so the race detector sees the pool
// used from several goroutines at once.
func TestCompressPagesPooledWriterIdentical(t *testing.T) {
	pageSet := func(seed uint32, k int) []PageRecord {
		n := 1 + (k*7+int(seed))%23
		if k%5 == 4 {
			n = 100 // well past the deflate window
		}
		x := seed*2654435761 + uint32(k)
		pages := make([]PageRecord, n)
		for i := range pages {
			size := mem.PageSize
			if (i+k)%4 == 3 {
				size = 1 + (i*997+k)%mem.PageSize // a short page: padded on the wire
			}
			data := make([]byte, size)
			switch (i + k) % 3 {
			case 0: // mostly-zero heap page
				for j := 0; j < len(data); j += 64 + i {
					data[j] = byte(j + k)
				}
			case 1: // dense pseudo-random data
				for j := range data {
					x = x*1664525 + 1013904223
					data[j] = byte(x >> 24)
				}
			default: // a repeated record
				for j := range data {
					data[j] = byte(j % (3 + k))
				}
			}
			pages[i] = PageRecord{PN: uint32(1000*k + i), Data: data}
		}
		return pages
	}
	for g := uint32(0); g < 4; g++ {
		t.Run(fmt.Sprintf("stream%d", g), func(t *testing.T) {
			t.Parallel()
			for k := 0; k < 12; k++ {
				pages := pageSet(g, k)
				// What a writer nobody has used makes of the same records.
				var raw, want bytes.Buffer
				for _, p := range pages {
					var hdr [4]byte
					binary.LittleEndian.PutUint32(hdr[:], p.PN)
					raw.Write(hdr[:])
					raw.Write(p.Data)
					raw.Write(make([]byte, mem.PageSize-len(p.Data)))
				}
				w, err := flate.NewWriter(&want, flate.BestSpeed)
				if err != nil {
					t.Fatal(err)
				}
				w.Write(raw.Bytes())
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}

				m := &Message{Kind: MsgFinalize, PageTable: pageTable(pages), Pages: pages}
				rawBytes, err := m.CompressPages()
				if err != nil {
					t.Fatal(err)
				}
				if rawBytes != int64(raw.Len()) {
					t.Fatalf("set %d: raw size %d, want %d", k, rawBytes, raw.Len())
				}
				if !bytes.Equal(m.Data, want.Bytes()) {
					t.Fatalf("set %d: pooled writer emitted %d bytes that differ from a fresh writer's %d",
						k, len(m.Data), want.Len())
				}
				got, err := m.DecompressPages()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(pages) {
					t.Fatalf("set %d: %d pages back, sent %d", k, len(got), len(pages))
				}
				for i, p := range got {
					off := i * (4 + mem.PageSize)
					if p.PN != pages[i].PN || !bytes.Equal(p.Data, raw.Bytes()[off+4:off+4+mem.PageSize]) {
						t.Fatalf("set %d: page %d drifted through the round trip", k, i)
					}
				}
				freeFrames(got)
				m.release()
			}
		})
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	m := &Message{Kind: MsgFinalize, Compressed: true, Data: []byte("not deflate")}
	if _, err := m.DecompressPages(); err == nil {
		t.Error("garbage payload accepted")
	}
}

func TestWireSizeTracksPayload(t *testing.T) {
	small := (&Message{Kind: MsgRemoteWrite, Data: []byte("x")}).WireSize()
	big := (&Message{Kind: MsgRemoteWrite, Data: bytes.Repeat([]byte{1}, 4096)}).WireSize()
	if big-small != 4095 {
		t.Errorf("payload delta = %d, want 4095", big-small)
	}
	if small > 64 {
		t.Errorf("envelope overhead %d bytes, want compact (<64)", small)
	}
}

// TestWireSizeIsEncodedLength holds the closed form to the encoder for every
// message kind with every variable-length field populated, and for page
// records the encoder pads (short, empty) or cuts (long) to a full page.
func TestWireSizeIsEncodedLength(t *testing.T) {
	for k := MsgOffloadRequest; k <= MsgCheckpoint; k++ {
		m := &Message{Kind: k, TaskID: int32(k), SP: 0x7fff_0000, Args: make([]uint64, int(k)),
			PageTable: make([]uint32, 3*int(k)), Addr: 0x2000_0000, FD: 3, N: 9, Ret: 1 << 40,
			Compressed: k%2 == 0, Data: bytes.Repeat([]byte{byte(k)}, 17*int(k)),
			Pages: []PageRecord{
				{PN: 1, Data: make([]byte, mem.PageSize)},
				{PN: 2, Data: []byte("short")},
				{PN: 3},
				{PN: 4, Data: make([]byte, mem.PageSize+100)},
			}[:int(k)%5]}
		if got, want := m.WireSize(), int64(len(m.Encode())); got != want {
			t.Errorf("%v: WireSize %d, encoded %d bytes", k, got, want)
		}
	}
	if got, want := (&Message{}).WireSize(), int64(len((&Message{}).Encode())); got != want {
		t.Errorf("empty message: WireSize %d, encoded %d bytes", got, want)
	}
}

func TestMsgKindString(t *testing.T) {
	if MsgFinalize.String() != "finalize" || MsgKind(99).String() == "" {
		t.Error("MsgKind.String broken")
	}
}

func TestDecodeRejectsBitFlip(t *testing.T) {
	m := &Message{Kind: MsgRemoteWrite, Data: []byte("score 42\n")}
	enc := m.Encode()
	// Flip every body byte in turn: the CRC must catch each single-bit error.
	for i := 4; i < len(enc)-4; i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at offset %d accepted", i)
		}
	}
	// Flipping the checksum itself must fail too.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0x01
	if _, err := Decode(bad); err == nil {
		t.Fatal("broken checksum accepted")
	}
}

func TestDecodeRejectsMalformedStructure(t *testing.T) {
	reseal := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[4:len(b)-4]))
		binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
		return b
	}
	base := (&Message{Kind: MsgFinalize, Ret: 7}).Encode()

	// Unknown kind with a valid checksum.
	bad := append([]byte(nil), base...)
	bad[4] = byte(MsgCheckpoint) + 1
	if _, err := Decode(reseal(bad)); err == nil {
		t.Error("unknown kind accepted")
	}
	bad = append([]byte(nil), base...)
	bad[4] = 0
	if _, err := Decode(reseal(bad)); err == nil {
		t.Error("zero kind accepted")
	}

	// Element counts exceeding the bytes present (valid checksum, hostile
	// counts): args, page table, pages.
	for _, off := range []int{4 + 1 + 4 + 4} { // nArgs offset after kind+task+sp
		bad = append([]byte(nil), base...)
		binary.LittleEndian.PutUint32(bad[off:], 1<<15)
		if _, err := Decode(reseal(bad)); err == nil {
			t.Errorf("hostile count at offset %d accepted", off)
		}
	}
}

// wirePageSet is the page population the wire-path tests and
// BenchmarkWirePages move: dense pseudo-random pages and sparse mostly-zero
// heap pages, alternating, resident in a Memory so PageData hands out views.
func wirePageSet(n int) (*mem.Memory, []uint32) {
	src := mem.New()
	x := uint32(12345)
	pns := make([]uint32, n)
	buf := make([]byte, mem.PageSize)
	for i := range pns {
		clear(buf)
		if i%2 == 0 {
			for j := range buf {
				x = x*1664525 + 1013904223
				buf[j] = byte(x >> 24)
			}
		} else {
			for j := 0; j < len(buf); j += 96 {
				buf[j] = byte(j + i)
			}
		}
		pns[i] = mem.PageNum(mem.HeapBase) + uint32(i)
		src.InstallPage(pns[i], buf)
	}
	return src, pns
}

func pageRecords(src *mem.Memory, pns []uint32) []PageRecord {
	pages := make([]PageRecord, len(pns))
	for i, pn := range pns {
		pages[i] = PageRecord{PN: pn, Data: src.PageData(pn)}
	}
	return pages
}

// pageTable lists the page numbers of a record set: the smallest page table
// a finalization carrying them may have.
func pageTable(pages []PageRecord) []uint32 {
	pns := make([]uint32, len(pages))
	for i, p := range pages {
		pns[i] = p.PN
	}
	return pns
}

// deflated is raw deflated at the highest ratio, the way a hostile peer
// would pack a payload.
func deflated(raw []byte) []byte {
	var b bytes.Buffer
	w, _ := flate.NewWriter(&b, flate.BestCompression)
	w.Write(raw)
	w.Close()
	return b.Bytes()
}

// zeroBomb is a finalization whose payload inflates to 1 000 all-zero page
// records — 4 MB from a few kilobytes — over a one-entry page table: 999
// records more than an honest server can write back.
func zeroBomb() *Message {
	return &Message{Kind: MsgFinalize, Ret: 1, PageTable: []uint32{1}, Compressed: true,
		Data: deflated(make([]byte, 1000*pageRecordBytes))}
}

// TestAppendEncodeIntoRecycledBuffer: a frame encoded into a recycled buffer
// — full of another frame's bytes, too small, or already holding a prefix —
// is byte for byte the frame a fresh Encode produces. The encoded size is
// charged to the link and the CRC covers every byte, so stale buffer content
// leaking into a frame would show here first.
func TestAppendEncodeIntoRecycledBuffer(t *testing.T) {
	src, pns := wirePageSet(6)
	msgs := []*Message{
		{Kind: MsgOffloadRequest, TaskID: 3, SP: 0x7fff_e000, Args: []uint64{1, 1 << 62},
			PageTable: pns, Pages: pageRecords(src, pns)},
		{Kind: MsgFinalize, Ret: 9, Pages: []PageRecord{
			{PN: 1, Data: []byte("short")}, {PN: 2}, {PN: 3, Data: make([]byte, mem.PageSize+100)}}},
		{Kind: MsgRemoteWrite, Data: []byte("score 42\n")},
		{Kind: MsgShutdown},
	}
	for _, m := range msgs {
		want := m.Encode()
		garbage := bytes.Repeat([]byte{0xa5}, len(want)+512)
		if got := m.AppendEncode(garbage[:0]); !bytes.Equal(got, want) {
			t.Errorf("%v: encoding into a garbage-filled buffer differs from a fresh Encode", m.Kind)
		}
		if got := m.AppendEncode(garbage[: 0 : len(want)/2]); !bytes.Equal(got, want) {
			t.Errorf("%v: encoding into a too-small buffer differs from a fresh Encode", m.Kind)
		}
		got := m.AppendEncode(garbage[:7])
		if !bytes.Equal(got[:7], garbage[:7]) || !bytes.Equal(got[7:], want) {
			t.Errorf("%v: appending after a prefix did not leave the prefix and the fresh frame", m.Kind)
		}
	}
}

// TestReleasedFrameDoesNotReachMemory: Decode's records alias the frame, and
// the runtime recycles the frame as soon as they are installed — so nothing
// installed may still point into it. Both directions: the request path and
// the compressed return path are driven into a Memory, the frame is then
// poisoned, and the Memory must still hold what was sent.
func TestReleasedFrameDoesNotReachMemory(t *testing.T) {
	src, pns := wirePageSet(8)
	for _, compress := range []bool{false, true} {
		m := &Message{Kind: MsgFinalize, PageTable: pns, Pages: pageRecords(src, pns)}
		if compress {
			if _, err := m.CompressPages(); err != nil {
				t.Fatal(err)
			}
		}
		frame := m.AppendEncode(nil)
		got, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		pages, err := got.DecompressPages()
		if err != nil {
			t.Fatal(err)
		}
		if len(pages) != len(pns) {
			t.Fatalf("compress=%v: %d pages decoded, sent %d", compress, len(pages), len(pns))
		}
		dst := mem.New()
		for _, p := range pages {
			dst.InstallPage(p.PN, p.Data)
		}
		for i := range frame {
			frame[i] = 0xff
		}
		for _, pn := range pns {
			if !bytes.Equal(dst.PageData(pn), src.PageData(pn)) {
				t.Fatalf("compress=%v: page %#x changed when its released frame was overwritten", compress, pn)
			}
		}
	}
}

// TestFreedFrameDoesNotReachMemory: the compressed payload lives in a
// recycled buffer that goes back once the frame holds a copy, and a payload
// that fails to inflate gives back the page frames it inflated into. Both
// are poisoned right after they go back: the frame must still decode to
// what was sent, no Memory may hold a poisoned frame, and an honest
// write-back that inflates into those frames next overwrites every byte.
func TestFreedFrameDoesNotReachMemory(t *testing.T) {
	src, pns := wirePageSet(8)
	fin := &Message{Kind: MsgFinalize, PageTable: pns, Pages: pageRecords(src, pns)}
	if _, err := fin.CompressPages(); err != nil {
		t.Fatal(err)
	}
	frame := fin.AppendEncode(nil)
	payload := fin.comp.Bytes()
	fin.release()
	for i := range payload {
		payload[i] = 0xff
	}
	writeBack := func(dst *mem.Memory) {
		got, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		pages, err := got.DecompressPages()
		if err != nil {
			t.Fatal(err)
		}
		commitPages(dst, pages, true)
	}
	held := func(dst *mem.Memory) {
		t.Helper()
		for _, pn := range pns {
			if !bytes.Equal(dst.PageData(pn), src.PageData(pn)) {
				t.Fatalf("page %#x does not hold what was written back", pn)
			}
		}
	}
	dst := mem.New()
	writeBack(dst)
	held(dst)

	// All eight records inflate, then the payload ends inside a ninth: nine
	// frames were taken, and all nine went back.
	var raw []byte
	for _, p := range pageRecords(src, pns) {
		raw = append(binary.LittleEndian.AppendUint32(raw, p.PN), p.Data...)
	}
	raw = append(raw, raw[:100]...)
	bad := &Message{Kind: MsgFinalize, PageTable: append(pns, pns...), Compressed: true, Data: deflated(raw)}
	if _, err := bad.DecompressPages(); err == nil || !strings.Contains(err.Error(), "ends inside record 8") {
		t.Fatalf("truncated payload: %v", err)
	}
	freed := make([]*[mem.PageSize]byte, len(pns)+1)
	for i := range freed {
		freed[i] = mem.AllocFrame()
		for j := range freed[i] {
			freed[i][j] = 0xff
		}
	}
	held(dst)
	for _, p := range freed {
		mem.FreeFrame(p)
	}
	dst = mem.New()
	writeBack(dst)
	held(dst)
}

// TestBadWriteBackChangesNothing is commit-at-return on the mobile side of
// finalization. A frame that is corrupt (its checksum, or a payload that is
// not deflate), truncated (the payload ends inside a record) or over-long
// (it inflates to more records than its page table lists) is refused before
// the first page is installed: mobile memory is as it was, the journaled
// output is not committed, and every page frame the inflation took is back
// in the pool. The honest frame beside them installs and commits.
func TestBadWriteBackChangesNothing(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{})
	s, mobile := env.sess, env.mobile.Mem
	pn := mobile.PresentPages()[0]
	page := bytes.Repeat([]byte{0x5a}, mem.PageSize)
	record := append(binary.LittleEndian.AppendUint32(nil, pn), page...)
	finalize := func(pt []uint32, payload []byte) []byte {
		return (&Message{Kind: MsgFinalize, Ret: 7, PageTable: pt, Compressed: true, Data: payload}).Encode()
	}
	honest := finalize([]uint32{pn}, deflated(record))
	flipped := bytes.Clone(honest)
	flipped[len(flipped)/2] ^= 0x40
	for _, c := range []struct {
		name, want string
		frame      []byte
	}{
		{"checksum", "checksum mismatch", flipped},
		{"not deflate", "finalize payload corrupt", finalize([]uint32{pn}, []byte("not deflate"))},
		{"truncated", "corrupt page payload", finalize([]uint32{pn, pn + 1}, deflated(append(record, record[:100]...)))},
		{"over-long", "corrupt page payload", zeroBomb().Encode()},
	} {
		s.ioJournal = []string{"journaled\n"}
		gen, digest, out := mobile.Gen(), mobile.Digest(), env.io.Out.String()
		top := markPoolTop(4)
		if _, err := s.receiveWriteBack(c.frame); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
		if !top.back() {
			t.Errorf("%s: a refused write-back kept a page frame", c.name)
		}
		if mobile.Gen() != gen || mobile.Digest() != digest {
			t.Errorf("%s: a refused write-back installed pages", c.name)
		}
		if env.io.Out.String() != out {
			t.Errorf("%s: a refused write-back committed the journaled output", c.name)
		}
	}

	s.ioJournal = []string{"journaled\n"}
	ret, err := s.receiveWriteBack(honest)
	if err != nil || ret != 7 {
		t.Fatalf("honest write-back: ret %d, %v", ret, err)
	}
	if !bytes.Equal(mobile.PageData(pn), page) || !strings.HasSuffix(env.io.Out.String(), "journaled\n") {
		t.Error("the honest write-back did not install its page and commit the journal")
	}
}

// TestUncompressedWriteBackCopies: under Policy.NoCompress the write-back's
// records alias the wire frame, which the runtime recycles once SendReturn
// returns, so the mobile copies them and adopts nothing. Poisoning the frame
// after the commit changes no page, and the page frame under the written
// page is the one the mobile held before.
func TestUncompressedWriteBackCopies(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{NoCompress: true})
	s, mobile := env.sess, env.mobile.Mem
	pn := mobile.PresentPages()[0]
	before, err := mobile.DirtyPage(pn)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0x5a}, mem.PageSize)
	frame := (&Message{Kind: MsgFinalize, Ret: 7, PageTable: []uint32{pn},
		Pages: []PageRecord{{PN: pn, Data: page}}}).Encode()
	if ret, err := s.receiveWriteBack(frame); err != nil || ret != 7 {
		t.Fatalf("write-back: ret %d, %v", ret, err)
	}
	for i := range frame {
		frame[i] = 0xff
	}
	if got := mobile.PageData(pn); !bytes.Equal(got, page) || &got[0] != &before[0] {
		t.Error("an uncompressed write-back adopted its record instead of copying it")
	}
}

// writeBackSpy is the server's SysHost in TestWriteBackInflatesIntoServerFrames:
// at each finalization it notes the arrays under the server's pages, lets
// the session finalize, and checks that every page the mobile committed is
// one of them.
type writeBackSpy struct {
	*Session
	t         *testing.T
	committed int
}

func (sp *writeBackSpy) SendReturn(m *interp.Machine, v uint64) error {
	held := map[*[mem.PageSize]byte]bool{}
	for _, pn := range sp.ep.m.Mem.PresentPages() {
		held[(*[mem.PageSize]byte)(sp.ep.m.Mem.PageData(pn))] = true
	}
	dirty := sp.ep.m.Mem.DirtyPages()
	err := sp.Session.SendReturn(m, v)
	for _, pn := range dirty {
		if !held[(*[mem.PageSize]byte)(sp.Mobile.Mem.PageData(pn))] {
			sp.t.Errorf("page %#x was committed in a frame the server did not hold", pn)
		}
		sp.committed++
	}
	return err
}

// TestWriteBackInflatesIntoServerFrames: the server drops its pages as soon
// as the finalization frame is encoded, before the mobile inflates the
// write-back, so each page the mobile commits is a frame the server held a
// moment before — not a fresh one, and not an older one from the pool. The
// pool starts empty, so nothing but the server's drop can feed the
// inflation.
func TestWriteBackInflatesIntoServerFrames(t *testing.T) {
	env := setup(t, netsim.Fast80211AC(), Policy{})
	spy := &writeBackSpy{Session: env.sess, t: t}
	env.server.Sys = spy
	taken := make([]*[mem.PageSize]byte, 4096) // more than the pool holds
	for i := range taken {
		taken[i] = mem.AllocFrame()
	}
	_, err := env.sess.RunMobile()
	for _, p := range taken {
		mem.FreeFrame(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	if env.sess.Stats.Offloads == 0 || spy.committed == 0 {
		t.Fatalf("%d offloads committed %d pages; the test needs a write-back", env.sess.Stats.Offloads, spy.committed)
	}
}

// poolTop is a marked top of mem's frame pool: n frames of the test's own,
// put where the next n AllocFrame calls take them.
type poolTop map[*[mem.PageSize]byte]bool

func markPoolTop(n int) poolTop {
	for i := 0; i < n; i++ {
		mem.AllocFrame() // room for the marks below the pool's bound
	}
	top := poolTop{}
	for i := 0; i < n; i++ {
		p := new([mem.PageSize]byte)
		top[p] = true
		mem.FreeFrame(p)
	}
	return top
}

// back takes the pool's top len(top) frames and reports whether they are
// the marked ones: whatever ran since markPoolTop gave back every frame it
// took. The marks are given back again.
func (top poolTop) back() bool {
	ok := true
	taken := make([]*[mem.PageSize]byte, 0, len(top))
	for range top {
		p := mem.AllocFrame()
		ok = ok && top[p]
		taken = append(taken, p)
	}
	for i := len(taken) - 1; i >= 0; i-- {
		mem.FreeFrame(taken[i])
	}
	return ok
}

// TestWirePathAllocationBudget pins the page path's allocation shape: the
// encoder writes into the buffer it is given, the decoder allocates the
// message and its three tables and nothing per page, and a page moved from
// one Memory to another through the request path costs the receiving
// Memory's page and no other page-sized allocation.
func TestWirePathAllocationBudget(t *testing.T) {
	const n = 256
	src, pns := wirePageSet(n)
	req := &Message{Kind: MsgOffloadRequest, TaskID: 1, Args: []uint64{7}, PageTable: pns, Pages: pageRecords(src, pns)}
	frame := make([]byte, 0, req.WireSize())
	if allocs := testing.AllocsPerRun(10, func() { frame = req.AppendEncode(frame[:0]) }); allocs != 0 {
		t.Errorf("AppendEncode into a sized buffer: %.0f allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := Decode(frame); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Errorf("Decode of a %d-page frame: %.0f allocs, want <= 4 (the message, Args, PageTable, Pages)", n, allocs)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	msg := &Message{Kind: MsgOffloadRequest, PageTable: pns, Pages: pageRecords(src, pns)}
	got, err := Decode(msg.AppendEncode(frame[:0]))
	if err != nil {
		t.Fatal(err)
	}
	dst := mem.New()
	for _, p := range got.Pages {
		dst.InstallPage(p.PN, p.Data)
	}
	runtime.ReadMemStats(&after)
	if perPage := float64(after.TotalAlloc-before.TotalAlloc) / n; perPage > 1.5*mem.PageSize {
		t.Errorf("request path allocated %.0f bytes per page moved, want one page (<= %d)", perPage, 3*mem.PageSize/2)
	}
	if !bytes.Equal(dst.PageData(pns[n-1]), src.PageData(pns[n-1])) {
		t.Error("page drifted through the request path")
	}

	// The return direction, the way SendReturn runs it: compressed into a
	// recycled buffer, encoded into a recycled frame, inflated into page
	// frames from the pool and adopted over pages the mobile already holds,
	// whose frames go back to the pool. After one warm-up the recyclers and
	// the pool hold everything a write-back of this size needs, so what it
	// allocates is the decoded message, its page table and the record list,
	// and no page-sized buffer. The committed page is the inflated frame
	// itself: nothing copies it a second time.
	recs := pageRecords(src, pns)
	writeBack := func() {
		fin := &Message{Kind: MsgFinalize, PageTable: pns, Pages: recs}
		if _, err := fin.CompressPages(); err != nil {
			t.Fatal(err)
		}
		frame := getFrame()
		*frame = fin.AppendEncode(*frame)
		fin.release()
		got, err := Decode(*frame)
		if err != nil {
			t.Fatal(err)
		}
		pages, err := got.DecompressPages()
		if err != nil {
			t.Fatal(err)
		}
		commitPages(dst, pages, true)
		frames.put(frame)
		for _, p := range pages {
			if &dst.PageData(p.PN)[0] != &p.Data[0] {
				t.Fatalf("page %#x was copied out of its inflated frame, not adopted", p.PN)
			}
		}
	}
	writeBack()
	bigBefore := allocsOver(32 << 10)
	runtime.ReadMemStats(&before)
	writeBack()
	runtime.ReadMemStats(&after)
	if big := allocsOver(32<<10) - bigBefore; big != 0 {
		t.Errorf("a warm write-back of %d pages made %d allocations over 32 KiB (a frame or a compressor buffer), want 0", n, big)
	}
	if total := after.TotalAlloc - before.TotalAlloc; total > 128*n {
		t.Errorf("a warm write-back of %d pages allocated %d bytes, want no page-sized buffer per page (<= %d)", n, total, 128*n)
	}
}

// allocsOver counts the heap allocations of more than size bytes the process
// has made. runtime/metrics buckets them by size class, so size should be a
// class size.
func allocsOver(size float64) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	metrics.Read(s)
	h := s[0].Value.Float64Histogram()
	var n uint64
	for i, c := range h.Counts {
		if h.Buckets[i] > size {
			n += c
		}
	}
	return n
}

// TestDecodeRejectsTruncatedFixedFields cuts a frame's body at every byte in
// turn — inside each fixed field, count and element (resealed, so length
// prefix and checksum are valid): the cursor must refuse every one of them,
// never read past the body.
func TestDecodeRejectsTruncatedFixedFields(t *testing.T) {
	for _, frame := range truncatedHeaderFrames() {
		if _, err := Decode(frame); err == nil {
			t.Errorf("body cut to %d bytes accepted", len(frame)-8)
		}
	}
}

// truncatedHeaderFrames returns one valid-looking frame per truncation point
// of a small message's body: every proper prefix of it, with a fresh length
// prefix and checksum.
func truncatedHeaderFrames() [][]byte {
	full := (&Message{Kind: MsgOffloadRequest, TaskID: 2, SP: 0xfff0, Args: []uint64{5},
		PageTable: []uint32{10}, Ret: 1, Data: []byte{1}}).Encode()
	body := full[4 : len(full)-4]
	var out [][]byte
	for cut := 0; cut < len(body); cut++ {
		f := binary.LittleEndian.AppendUint32(nil, uint32(cut+4))
		f = append(f, body[:cut]...)
		out = append(out, binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(body[:cut])))
	}
	return out
}

// BenchmarkWirePages is the page path's in-process number: 256 dense and 256
// sparse pages moved from one Memory to another the way a session moves
// them. "request" is the prefetch direction (PageData views encoded into a
// recycled frame, decoded, installed); "return" is the write-back direction
// (compressed into a recycled buffer, encoded, decoded, inflated into page
// frames from the pool, adopted over the pages already there). MB/s counts
// raw page bytes moved.
func BenchmarkWirePages(b *testing.B) {
	const n = 512
	src, pns := wirePageSet(n)
	move := func(b *testing.B, dst *mem.Memory, compress bool) {
		m := &Message{Kind: MsgFinalize, PageTable: pns, Pages: pageRecords(src, pns)}
		if compress {
			if _, err := m.CompressPages(); err != nil {
				b.Fatal(err)
			}
		}
		frame := getFrame()
		*frame = m.AppendEncode(*frame)
		m.release()
		got, err := Decode(*frame)
		if err != nil {
			b.Fatal(err)
		}
		pages, err := got.DecompressPages()
		if err != nil {
			b.Fatal(err)
		}
		commitPages(dst, pages, compress)
		frames.put(frame)
	}
	b.Run("request", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(n * mem.PageSize)
		for i := 0; i < b.N; i++ {
			dst := mem.New() // the server starts every offload empty
			move(b, dst, false)
			dst.Release() // and drops its pages at finalization
		}
	})
	b.Run("return", func(b *testing.B) {
		dst := mem.New()
		move(b, dst, true) // the mobile already holds the pages written back
		b.ReportAllocs()
		b.SetBytes(n * mem.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			move(b, dst, true)
		}
	})
}
