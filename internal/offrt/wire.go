package offrt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

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
}

// MaxWireBytes bounds one encoded message. The largest legitimate frames
// are offload requests carrying a prefetched working set and finalization
// messages carrying compressed dirty pages; even unscaled workloads stay
// far below 1 GiB, so anything bigger is a malformed or hostile frame.
const MaxWireBytes = 1 << 30

// Encode serializes the message as
//
//	[4-byte length][body][4-byte CRC32 (IEEE) of body]
//
// with the length prefix counting everything after itself (body + CRC).
// The checksum lets the receiver detect payload corruption on a faulty
// link and request a retransmission instead of interpreting garbage.
func (m *Message) Encode() []byte {
	var buf bytes.Buffer
	buf.Grow(int(m.WireSize()))
	buf.Write([]byte{0, 0, 0, 0}) // length placeholder
	w := func(v interface{}) { binary.Write(&buf, binary.LittleEndian, v) }
	w(uint8(m.Kind))
	w(m.TaskID)
	w(m.SP)
	w(uint32(len(m.Args)))
	for _, a := range m.Args {
		w(a)
	}
	w(uint32(len(m.PageTable)))
	for _, pn := range m.PageTable {
		w(pn)
	}
	w(uint32(len(m.Pages)))
	for _, p := range m.Pages {
		w(p.PN)
		data := p.Data
		if len(data) != mem.PageSize {
			padded := make([]byte, mem.PageSize)
			copy(padded, data)
			data = padded
		}
		buf.Write(data)
	}
	w(m.Addr)
	w(m.FD)
	w(m.N)
	w(m.Ret)
	var comp uint8
	if m.Compressed {
		comp = 1
	}
	w(comp)
	w(uint32(len(m.Data)))
	buf.Write(m.Data)

	sum := crc32.ChecksumIEEE(buf.Bytes()[4:])
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	buf.Write(crc[:])

	out := buf.Bytes()
	binary.LittleEndian.PutUint32(out[:4], uint32(len(out)-4))
	return out
}

// Decode parses and validates one encoded message. It never panics on
// hostile input: the frame length, CRC32 checksum, message kind and every
// declared element count are checked against the bytes actually present
// before any allocation sized from them.
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
	r := bytes.NewReader(body)
	m := &Message{}
	var kind, comp uint8
	var nArgs, nPT, nPages, nData uint32
	rd := func(v interface{}) error { return binary.Read(r, binary.LittleEndian, v) }
	if err := firstErr(
		rd(&kind), rd(&m.TaskID), rd(&m.SP), rd(&nArgs),
	); err != nil {
		return nil, err
	}
	if kind == 0 || MsgKind(kind) > MsgCheckpoint {
		return nil, fmt.Errorf("offrt: unknown message kind %d", kind)
	}
	m.Kind = MsgKind(kind)
	if nArgs > 1<<16 || int64(nArgs)*8 > int64(r.Len()) {
		return nil, fmt.Errorf("offrt: absurd arg count %d", nArgs)
	}
	if nArgs > 0 {
		m.Args = make([]uint64, 0, nArgs)
	}
	for i := uint32(0); i < nArgs; i++ {
		var a uint64
		if err := rd(&a); err != nil {
			return nil, err
		}
		m.Args = append(m.Args, a)
	}
	if err := rd(&nPT); err != nil {
		return nil, err
	}
	if nPT > 1<<24 || int64(nPT)*4 > int64(r.Len()) {
		return nil, fmt.Errorf("offrt: absurd page table size %d", nPT)
	}
	if nPT > 0 {
		m.PageTable = make([]uint32, 0, nPT)
	}
	for i := uint32(0); i < nPT; i++ {
		var pn uint32
		if err := rd(&pn); err != nil {
			return nil, err
		}
		m.PageTable = append(m.PageTable, pn)
	}
	if err := rd(&nPages); err != nil {
		return nil, err
	}
	if nPages > 1<<20 || int64(nPages)*(4+mem.PageSize) > int64(r.Len()) {
		return nil, fmt.Errorf("offrt: absurd page count %d", nPages)
	}
	if nPages > 0 {
		m.Pages = make([]PageRecord, 0, nPages)
	}
	for i := uint32(0); i < nPages; i++ {
		var pn uint32
		if err := rd(&pn); err != nil {
			return nil, err
		}
		data := make([]byte, mem.PageSize)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
		}
		m.Pages = append(m.Pages, PageRecord{PN: pn, Data: data})
	}
	if err := firstErr(rd(&m.Addr), rd(&m.FD), rd(&m.N), rd(&m.Ret), rd(&comp), rd(&nData)); err != nil {
		return nil, err
	}
	if comp > 1 {
		return nil, fmt.Errorf("offrt: bad compression flag %d", comp)
	}
	m.Compressed = comp == 1
	if int64(nData) != int64(r.Len()) {
		return nil, fmt.Errorf("offrt: trailing data mismatch: declared %d, have %d", nData, r.Len())
	}
	if nData > 0 {
		m.Data = make([]byte, nData)
		if _, err := io.ReadFull(r, m.Data); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
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
		(4+mem.PageSize)*int64(len(m.Pages)) + int64(len(m.Data))
}

// deflaters recycles CompressPages' BestSpeed writers. A flate.Writer
// carries about 1.2 MB of compressor state that NewWriter zeroes and one
// offload return then throws away; Reset rewinds a used writer to the state
// NewWriter leaves, so a recycled writer emits the bytes a fresh one would.
// A writer that failed mid-stream is dropped, not returned.
var deflaters sync.Pool

// CompressPages deflates a page set into the message's Data field and
// drops the raw pages, returning the raw (pre-compression) size. The
// mobile side reverses it with DecompressPages.
func (m *Message) CompressPages() (rawBytes int64, err error) {
	var raw bytes.Buffer
	raw.Grow(len(m.Pages) * (4 + mem.PageSize))
	for _, p := range m.Pages {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], p.PN)
		raw.Write(hdr[:])
		data := p.Data
		if len(data) != mem.PageSize {
			padded := make([]byte, mem.PageSize)
			copy(padded, data)
			data = padded
		}
		raw.Write(data)
	}
	rawBytes = int64(raw.Len())
	var comp bytes.Buffer
	w, _ := deflaters.Get().(*flate.Writer)
	if w != nil {
		w.Reset(&comp)
	} else if w, err = flate.NewWriter(&comp, flate.BestSpeed); err != nil {
		return rawBytes, err
	}
	if _, err := w.Write(raw.Bytes()); err != nil {
		return rawBytes, err
	}
	if err := w.Close(); err != nil {
		return rawBytes, err
	}
	deflaters.Put(w)
	m.Pages = nil
	m.Data = comp.Bytes()
	m.Compressed = true
	return rawBytes, nil
}

// inflateGuess is the compression ratio DecompressPages sizes its first
// buffer for. Dirty guest pages deflate between 3x (dense arrays) and
// over 100x (mostly-zero heaps); guessing low costs the sparse payloads a
// few doublings, guessing high would commit memory that dense ones — or a
// hostile one — never fill.
const inflateGuess = 4

// DecompressPages inflates a finalization payload back into page records.
func (m *Message) DecompressPages() ([]PageRecord, error) {
	if !m.Compressed {
		return m.Pages, nil
	}
	// The output buffer starts at a size taken from the payload in hand —
	// never from a length field the peer wrote — and doubles from there,
	// where io.ReadAll would start at 512 bytes and regrow by quarters. The
	// returned records alias it, so it is not recycled.
	var buf bytes.Buffer
	buf.Grow(inflateGuess * len(m.Data))
	if _, err := buf.ReadFrom(flate.NewReader(bytes.NewReader(m.Data))); err != nil {
		return nil, err
	}
	raw := buf.Bytes()
	if len(raw)%(4+mem.PageSize) != 0 {
		return nil, fmt.Errorf("offrt: corrupt page payload (%d bytes)", len(raw))
	}
	out := make([]PageRecord, 0, len(raw)/(4+mem.PageSize))
	for off := 0; off < len(raw); off += 4 + mem.PageSize {
		out = append(out, PageRecord{
			PN:   binary.LittleEndian.Uint32(raw[off:]),
			Data: raw[off+4 : off+4+mem.PageSize],
		})
	}
	return out, nil
}
