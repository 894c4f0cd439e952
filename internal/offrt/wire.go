package offrt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/freelist"
	"repro/internal/mem"
)

// MsgKind tags the runtime's wire messages. The protocol follows the
// paper's Figure 5 life cycle: an offload request carries the task id, the
// current stack pointer, the page table and the prefetched pages; during
// offloading execution the server requests pages and remote I/O; the
// finalization message returns the result with the (compressed) dirty
// pages and updated page table.
type MsgKind uint8

const (
	MsgOffloadRequest MsgKind = iota + 1
	MsgPageRequest
	MsgPageData
	MsgRemoteWrite
	MsgRemoteOpen
	MsgRemoteOpenResp
	MsgRemoteRead
	MsgRemoteReadResp
	MsgRemoteClose
	MsgFinalize
	MsgShutdown
	// MsgCheckpoint ships a mid-flight migration checkpoint between
	// servers over the backhaul: the execution state sub-encoded into the
	// Data field (see encodeCheckpoint), framed and CRC-checked like every
	// other message.
	MsgCheckpoint
)

func (k MsgKind) String() string {
	names := [...]string{"", "offload", "pagereq", "pagedata", "rwrite",
		"ropen", "ropenresp", "rread", "rreadresp", "rclose", "finalize", "shutdown",
		"checkpoint"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("msg(%d)", uint8(k))
}

// PageRecord is one page on the wire.
type PageRecord struct {
	PN   uint32
	Data []byte // PageSize bytes
}

// Message is the runtime's single wire envelope; fields are used per kind.
type Message struct {
	Kind   MsgKind
	TaskID int32
	SP     uint32
	Args   []uint64
	// PageTable lists the sender's present pages (offload request) or the
	// updated page set (finalization).
	PageTable  []uint32
	Pages      []PageRecord
	Addr       uint32 // page request
	FD         int32
	N          int32
	Ret        uint64
	Data       []byte // remote I/O payload, or compressed page payload
	Compressed bool

	// comp is the recycled buffer Data aliases after CompressPages; release
	// gives it back.
	comp *bytes.Buffer
}

// pageRecordBytes is one page record, in a frame or in a compressed payload
// before deflation: the page number and the full page.
const pageRecordBytes = 4 + mem.PageSize

// MaxWireBytes bounds one encoded message. The largest legitimate frames
// are offload requests carrying a prefetched working set and finalization
// messages carrying compressed dirty pages; even unscaled workloads stay
// far below 1 GiB, so anything bigger is a malformed or hostile frame.
const MaxWireBytes = 1 << 30

// zeroPage pads a page record whose Data is shorter than a page.
var zeroPage [mem.PageSize]byte

// Encode serializes the message into a fresh buffer; see AppendEncode.
func (m *Message) Encode() []byte {
	return m.AppendEncode(nil)
}

// AppendEncode appends the message to dst as
//
//	[4-byte length][body][4-byte CRC32 (IEEE) of body]
//
// with the length prefix counting everything after itself (body + CRC), and
// returns the extended slice. The checksum lets the receiver detect payload
// corruption on a faulty link and request a retransmission instead of
// interpreting garbage. dst grows at most once, to the frame's WireSize, and
// whatever it held past its length is overwritten, so a recycled buffer
// yields the bytes a fresh one would.
func (m *Message) AppendEncode(dst []byte) []byte {
	le := binary.LittleEndian
	dst = slices.Grow(dst, int(m.WireSize()))
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length placeholder
	dst = append(dst, uint8(m.Kind))
	dst = le.AppendUint32(dst, uint32(m.TaskID))
	dst = le.AppendUint32(dst, m.SP)
	dst = le.AppendUint32(dst, uint32(len(m.Args)))
	for _, a := range m.Args {
		dst = le.AppendUint64(dst, a)
	}
	dst = le.AppendUint32(dst, uint32(len(m.PageTable)))
	for _, pn := range m.PageTable {
		dst = le.AppendUint32(dst, pn)
	}
	dst = le.AppendUint32(dst, uint32(len(m.Pages)))
	for _, p := range m.Pages {
		dst = le.AppendUint32(dst, p.PN)
		dst = appendPage(dst, p.Data)
	}
	dst = le.AppendUint32(dst, m.Addr)
	dst = le.AppendUint32(dst, uint32(m.FD))
	dst = le.AppendUint32(dst, uint32(m.N))
	dst = le.AppendUint64(dst, m.Ret)
	var comp uint8
	if m.Compressed {
		comp = 1
	}
	dst = append(dst, comp)
	dst = le.AppendUint32(dst, uint32(len(m.Data)))
	dst = append(dst, m.Data...)

	dst = le.AppendUint32(dst, crc32.ChecksumIEEE(dst[start+4:]))
	le.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// appendPage appends exactly one page: data cut or zero-padded to PageSize.
func appendPage(dst, data []byte) []byte {
	n := min(len(data), mem.PageSize)
	dst = append(dst, data[:n]...)
	return append(dst, zeroPage[n:]...)
}

// cursor walks a frame body front to back. A read past the end yields zeroes
// and sets short; Decode checks it after each group of fixed fields, and
// checks every declared count against rest() before taking what it counts.
type cursor struct {
	b     []byte
	short bool
}

func (c *cursor) rest() int64 { return int64(len(c.b)) }

// take returns the next n bytes, aliasing the frame, or nil if fewer remain.
func (c *cursor) take(n int) []byte {
	if len(c.b) < n {
		c.short = true
		c.b = nil
		return nil
	}
	out := c.b[:n:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) u8() uint8 {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// errTruncated is a frame whose body ends inside a fixed field.
var errTruncated = errors.New("offrt: truncated message body")

// Decode parses and validates one encoded message. It never panics on
// hostile input: the frame length, CRC32 checksum, message kind and every
// declared element count are checked against the bytes actually present
// before anything is sized from or sliced by them.
//
// The message aliases b: each page record's Data and the Data payload are
// subslices of the frame, not copies. Whoever recycles or rewrites the frame
// must be done with them first — installed into a Memory (InstallPage
// copies), inflated, or copied out.
func Decode(b []byte) (*Message, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("offrt: short message (%d bytes)", len(b))
	}
	if len(b) > MaxWireBytes {
		return nil, fmt.Errorf("offrt: oversized message (%d bytes > %d cap)", len(b), MaxWireBytes)
	}
	want := binary.LittleEndian.Uint32(b[:4])
	if int64(want) != int64(len(b)-4) {
		return nil, fmt.Errorf("offrt: length prefix %d does not match body %d", want, len(b)-4)
	}
	body := b[4 : len(b)-4]
	wantSum := binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(body); got != wantSum {
		return nil, fmt.Errorf("offrt: checksum mismatch (got %08x, frame says %08x)", got, wantSum)
	}
	r := cursor{b: body}
	m := &Message{}
	kind := r.u8()
	m.TaskID, m.SP = int32(r.u32()), r.u32()
	nArgs := r.u32()
	if r.short {
		return nil, errTruncated
	}
	if kind == 0 || MsgKind(kind) > MsgCheckpoint {
		return nil, fmt.Errorf("offrt: unknown message kind %d", kind)
	}
	m.Kind = MsgKind(kind)
	if nArgs > 1<<16 || int64(nArgs)*8 > r.rest() {
		return nil, fmt.Errorf("offrt: absurd arg count %d", nArgs)
	}
	if nArgs > 0 {
		m.Args = make([]uint64, nArgs)
		for i := range m.Args {
			m.Args[i] = r.u64()
		}
	}
	nPT := r.u32()
	if r.short {
		return nil, errTruncated
	}
	if nPT > 1<<24 || int64(nPT)*4 > r.rest() {
		return nil, fmt.Errorf("offrt: absurd page table size %d", nPT)
	}
	if nPT > 0 {
		m.PageTable = make([]uint32, nPT)
		for i := range m.PageTable {
			m.PageTable[i] = r.u32()
		}
	}
	nPages := r.u32()
	if r.short {
		return nil, errTruncated
	}
	if nPages > 1<<20 || int64(nPages)*pageRecordBytes > r.rest() {
		return nil, fmt.Errorf("offrt: absurd page count %d", nPages)
	}
	if nPages > 0 {
		m.Pages = make([]PageRecord, nPages)
		for i := range m.Pages {
			m.Pages[i] = PageRecord{PN: r.u32(), Data: r.take(mem.PageSize)}
		}
	}
	m.Addr, m.FD, m.N, m.Ret = r.u32(), int32(r.u32()), int32(r.u32()), r.u64()
	comp := r.u8()
	nData := r.u32()
	if r.short {
		return nil, errTruncated
	}
	if comp > 1 {
		return nil, fmt.Errorf("offrt: bad compression flag %d", comp)
	}
	m.Compressed = comp == 1
	if int64(nData) != r.rest() {
		return nil, fmt.Errorf("offrt: trailing data mismatch: declared %d, have %d", nData, r.rest())
	}
	if nData > 0 {
		m.Data = r.take(int(nData))
	}
	return m, nil
}

// recyclerCap is how many values each of the page path's free lists holds:
// wire frames, deflaters and their output buffers, and inflaters. They are
// freelist.Lists, not sync.Pools: with Pools, a sweep whose collections fell
// between two offloads allocated its multi-megabyte frames again, and what a
// run allocated varied by 10 % with nothing in it changed. A session has two
// frames in flight at most (the request and its finalization), one
// compressor state and its output buffer, and one inflater; sessions sharing
// a process beyond that allocate their own. The inflated pages themselves
// are page frames from mem's pool.
const recyclerCap = 4

// frames recycles the encode buffers of the two page-carrying messages (the
// offload request and the finalization): multi-megabyte frames that would
// otherwise be faulted in and zeroed fresh for every offload. A frame goes
// back once nothing decoded from it is still needed — Decode's result
// aliases it.
var frames = freelist.New[[]byte](recyclerCap)

// getFrame returns an empty frame buffer, recycled if one is available.
func getFrame() *[]byte {
	if f := frames.Get(); f != nil {
		*f = (*f)[:0]
		return f
	}
	return new([]byte)
}

// wireFixedBytes is what every frame carries besides its variable-length
// fields: the length prefix, the scalar fields (kind 1, TaskID 4, SP 4, Addr
// 4, FD 4, N 4, Ret 8, compression flag 1), the four element counts and the
// CRC.
const wireFixedBytes = 4 + (1 + 4 + 4 + 4 + 4 + 4 + 8 + 1) + 4*4 + 4

// WireSize returns len(m.Encode()) without encoding anything; it is what the
// session charges to the link. A page record is always a full page on the
// wire, whatever its Data holds.
func (m *Message) WireSize() int64 {
	return wireFixedBytes + 8*int64(len(m.Args)) + 4*int64(len(m.PageTable)) +
		pageRecordBytes*int64(len(m.Pages)) + int64(len(m.Data))
}

// deflaters recycles CompressPages' BestSpeed writers. A flate.Writer
// carries about 1.2 MB of compressor state that NewWriter zeroes and one
// offload return then throws away; Reset rewinds a used writer to the state
// NewWriter leaves, so a recycled writer emits the bytes a fresh one would.
// A writer that failed mid-stream is dropped, not returned.
var deflaters = freelist.New[flate.Writer](recyclerCap)

// deflateBufs recycles the buffers CompressPages deflates into. A buffer
// goes back once the payload is encoded into a frame (release); one that
// grew past maxDeflateBuf is dropped there instead, so a process keeps its
// common write-backs' buffers and not its largest one's.
var deflateBufs = freelist.New[bytes.Buffer](recyclerCap)

const maxDeflateBuf = 1 << 20

// CompressPages deflates a page set into the message's Data field and
// drops the raw pages, returning the raw (pre-compression) size. The
// mobile side reverses it with DecompressPages. Each record is streamed
// into the deflater as it is — a BestSpeed writer buffers a 64 KiB window
// before it compresses anything, so its output does not depend on how the
// input was cut into Writes. Data aliases a recycled buffer until release.
func (m *Message) CompressPages() (rawBytes int64, err error) {
	rawBytes = int64(len(m.Pages)) * pageRecordBytes
	comp := deflateBufs.Get()
	if comp == nil {
		comp = new(bytes.Buffer)
	}
	comp.Reset()
	w := deflaters.Get()
	if w != nil {
		w.Reset(comp)
	} else if w, err = flate.NewWriter(comp, flate.BestSpeed); err != nil {
		return rawBytes, err
	}
	var hdr [4]byte // escapes through Write: one for the call, not one a page
	for _, p := range m.Pages {
		binary.LittleEndian.PutUint32(hdr[:], p.PN)
		n := min(len(p.Data), mem.PageSize)
		for _, part := range [][]byte{hdr[:], p.Data[:n], zeroPage[n:]} {
			if _, err := w.Write(part); err != nil {
				return rawBytes, err
			}
		}
	}
	if err := w.Close(); err != nil {
		return rawBytes, err
	}
	deflaters.Put(w)
	m.Pages = nil
	m.Data, m.comp = comp.Bytes(), comp
	m.Compressed = true
	return rawBytes, nil
}

// inflater is a recyclable flate reader together with the byte source it is
// bound to: Reset re-aims fr at src, and src at the next payload. pn holds
// the page number of the record being inflated.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
	pn  [4]byte
}

// inflaters recycles DecompressPages' readers (a flate reader carries its
// 32 KiB window and Huffman tables). Reset rewinds a used reader to the
// state NewReader leaves; one that failed mid-stream is dropped anyway.
var inflaters = freelist.New[inflater](recyclerCap)

// DecompressPages inflates a finalization payload back into page records,
// each straight into a page frame of its own (mem.AllocFrame), so no
// inflated byte is copied a second time: the records own their frames, and
// the caller hands each to a Memory (AdoptPage) or back to the pool. A
// payload that inflates to more records than the message's PageTable lists
// is corrupt: the dirty pages a server writes back are a subset of the pages
// it holds, and without that bound a frame under MaxWireBytes could inflate
// a thousandfold. A payload that fails gives back every frame it took.
func (m *Message) DecompressPages() ([]PageRecord, error) {
	if !m.Compressed {
		return m.Pages, nil
	}
	inf := inflaters.Get()
	if inf == nil {
		inf = &inflater{}
		inf.fr = flate.NewReader(&inf.src)
	}
	inf.src.Reset(m.Data)
	if err := inf.fr.(flate.Resetter).Reset(&inf.src, nil); err != nil {
		return nil, err
	}
	var out []PageRecord
	for {
		if _, err := io.ReadFull(inf.fr, inf.pn[:]); err == io.EOF {
			break
		} else if err != nil {
			return nil, inflateFailed(out, err)
		}
		if len(out) == len(m.PageTable) {
			freeFrames(out)
			return nil, fmt.Errorf("offrt: corrupt page payload (more records than the %d-page table)", len(m.PageTable))
		}
		page := mem.AllocFrame()
		if _, err := io.ReadFull(inf.fr, page[:]); err != nil {
			mem.FreeFrame(page)
			return nil, inflateFailed(out, err)
		}
		out = append(out, PageRecord{PN: binary.LittleEndian.Uint32(inf.pn[:]), Data: page[:]})
	}
	inf.src.Reset(nil)
	inflaters.Put(inf)
	return out, nil
}

// freeFrames gives back the frames under records DecompressPages inflated.
func freeFrames(pages []PageRecord) {
	for _, p := range pages {
		mem.FreeFrame((*[mem.PageSize]byte)(p.Data))
	}
}

// inflateFailed gives back the frames of a payload that stopped inflating
// after the records in out, and names the failure.
func inflateFailed(out []PageRecord, err error) error {
	freeFrames(out)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("offrt: corrupt page payload (ends inside record %d)", len(out))
	}
	return err
}

// release gives back the buffer Data aliases after CompressPages, once the
// payload is encoded into a frame.
func (m *Message) release() {
	if m.comp != nil {
		if m.comp.Cap() <= maxDeflateBuf {
			deflateBufs.Put(m.comp)
		}
		m.comp, m.Data = nil, nil
	}
}
