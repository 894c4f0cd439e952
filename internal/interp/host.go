package interp

import (
	"fmt"
	"strings"
)

// IOHost provides the local I/O environment of one machine: stdout, stdin
// tokens for scanf, and an in-memory file system. On the mobile device this
// is the user's real environment; offloaded code reaches it through the
// remote I/O manager (Section 3.4). A read writes into its caller's buffer:
// Left says how long the read will be before any byte of it is produced, so
// the caller can fault in exactly the guest pages it lands on and hand Read
// each page's part in turn.
type IOHost interface {
	Write(s string)
	NextInt() (int64, bool)
	NextFloat() (float64, bool)
	Open(name string) (int32, error)
	// Left reports how many bytes of file fd are left to read.
	Left(fd int32) (int, error)
	// Read reads the next len(dst) bytes of file fd into dst — fewer only at
	// the end of the file — and returns how many it read.
	Read(fd int32, dst []byte) (int, error)
	Close(fd int32) error
}

// SysHost is the runtime attachment point for the intrinsics the partitioner
// inserts (Section 3.3) and for remote I/O service (Section 3.4). The
// offload runtime implements it; standalone (local-only) machines leave it
// nil and the interpreter falls back to local behaviour.
type SysHost interface {
	// Gate is the dynamic performance estimation: should task taskID be
	// offloaded right now?
	Gate(m *Machine, taskID int32) bool
	// Offload runs the task remotely and returns its result bits.
	Offload(m *Machine, taskID int32, args []uint64) (uint64, error)
	// Accept blocks until an offload request arrives; 0 means shut down.
	Accept(m *Machine) int32
	// Arg fetches argument i of the current request.
	Arg(m *Machine, i int32) uint64
	// SendReturn delivers the task result to the mobile device.
	SendReturn(m *Machine, v uint64) error
	// RemoteWrite services r_printf output on the mobile device.
	RemoteWrite(m *Machine, s string) error
	// RemoteOpen/RemoteRead/RemoteClose service remote file I/O.
	RemoteOpen(m *Machine, name string) (int32, error)
	RemoteRead(m *Machine, fd int32, n int) ([]byte, error)
	RemoteClose(m *Machine, fd int32) error
}

// IOSnapshotter is implemented by IO hosts that can checkpoint and roll
// back their consumable state (scanf tokens, open file cursors). The
// offload runtime snapshots before handing a task to the server, so that
// an aborted remote execution can be re-executed locally without
// double-consuming input. Output is not part of the snapshot: the runtime
// journals remote output and only commits it at successful finalization.
type IOSnapshotter interface {
	SnapshotIO() interface{}
	RestoreIO(interface{})
}

// StdIO is the default IOHost: an output buffer, a token queue for scanf,
// and a deterministic file system of synthetic files, generated as they are
// read.
type StdIO struct {
	Out    strings.Builder
	OutLen int64
	// MaxBuffered bounds the retained output (the byte count keeps
	// accumulating); 0 keeps everything.
	MaxBuffered int

	ints []int64

	files map[string]fileCursor // each file's cursor at its first byte
	fds   map[int32]*fileCursor
	next  int32
}

// fileCursor is a position in a synthetic file: the file's size, the read
// position, and the LCG state after pos steps, from which the next byte is
// one step. It is a plain value, so a snapshot copies the whole of it.
type fileCursor struct {
	size, pos int
	state     uint32
}

// NewStdIO builds a host with the given scanf integer inputs.
func NewStdIO(ints []int64) *StdIO {
	return &StdIO{
		ints:  ints,
		files: make(map[string]fileCursor),
		fds:   make(map[int32]*fileCursor),
		next:  3,
	}
}

// AddInput appends scanf integer tokens.
func (h *StdIO) AddInput(vs ...int64) { h.ints = append(h.ints, vs...) }

// The synthetic files' generator is the 32-bit LCG next(s) = lcgA*s + lcgC.
// Four steps of it are again one affine step, lcgA4*s + lcgC4 (mod 2^32),
// which lets four interleaved lanes produce the serial stream without one
// multiply waiting for the last.
const (
	lcgA  = 1664525
	lcgC  = 1013904223
	lcgA4 = lcgA * lcgA * lcgA * lcgA % (1 << 32)
	lcgC4 = lcgC * (lcgA*lcgA*lcgA + lcgA*lcgA + lcgA + 1) % (1 << 32)
)

// SyntheticFile installs a deterministic pseudo-random file of the given
// size, standing in for SPEC reference inputs: byte i is the top byte of the
// LCG's state after i+1 steps from seed|1. No byte of it exists until it is
// read.
func (h *StdIO) SyntheticFile(name string, size int, seed uint32) {
	h.files[name] = fileCursor{size: size, state: seed | 1}
}

// lcgFill writes the next len(dst) bytes of the stream whose state is s and
// returns the state after the last of them.
func lcgFill(dst []byte, s uint32) uint32 {
	i := 0
	if len(dst) >= 4 {
		s0 := s*lcgA + lcgC
		s1 := s0*lcgA + lcgC
		s2 := s1*lcgA + lcgC
		s3 := s2*lcgA + lcgC
		for ; i+4 <= len(dst); i += 4 {
			dst[i], dst[i+1], dst[i+2], dst[i+3] = byte(s0>>24), byte(s1>>24), byte(s2>>24), byte(s3>>24)
			s = s3
			s0, s1, s2, s3 = s0*lcgA4+lcgC4, s1*lcgA4+lcgC4, s2*lcgA4+lcgC4, s3*lcgA4+lcgC4
		}
	}
	for ; i < len(dst); i++ {
		s = s*lcgA + lcgC
		dst[i] = byte(s >> 24)
	}
	return s
}

func (h *StdIO) Write(s string) {
	h.OutLen += int64(len(s))
	if h.MaxBuffered > 0 && h.Out.Len() > h.MaxBuffered {
		return
	}
	h.Out.WriteString(s)
}

func (h *StdIO) NextInt() (int64, bool) {
	if len(h.ints) == 0 {
		return 0, false
	}
	v := h.ints[0]
	h.ints = h.ints[1:]
	return v, true
}

// NextFloat reports end of input: StdIO feeds integer tokens only.
func (h *StdIO) NextFloat() (float64, bool) { return 0, false }

func (h *StdIO) Open(name string) (int32, error) {
	c, ok := h.files[name]
	if !ok {
		return 0, fmt.Errorf("io: no such file %q", name)
	}
	fd := h.next
	h.next++
	h.fds[fd] = &c
	return fd, nil
}

func (h *StdIO) Left(fd int32) (int, error) {
	c, ok := h.fds[fd]
	if !ok {
		return 0, fmt.Errorf("io: read on closed fd %d", fd)
	}
	return max(0, c.size-c.pos), nil
}

// Read generates the next bytes of the file straight into dst.
func (h *StdIO) Read(fd int32, dst []byte) (int, error) {
	left, err := h.Left(fd)
	if err != nil {
		return 0, err
	}
	c := h.fds[fd]
	dst = dst[:min(len(dst), left)]
	c.state = lcgFill(dst, c.state)
	c.pos += len(dst)
	return len(dst), nil
}

func (h *StdIO) Close(fd int32) error {
	if _, ok := h.fds[fd]; !ok {
		return fmt.Errorf("io: close on unknown fd %d", fd)
	}
	delete(h.fds, fd)
	return nil
}

type stdIOSnapshot struct {
	ints []int64
	fds  map[int32]fileCursor
	next int32
}

// SnapshotIO checkpoints the consumable input state. The token slice is
// captured by header only: NextInt re-slices without writing to the
// backing array, so the snapshot stays valid without copying.
func (h *StdIO) SnapshotIO() interface{} {
	fds := make(map[int32]fileCursor, len(h.fds))
	for fd, c := range h.fds {
		fds[fd] = *c
	}
	return &stdIOSnapshot{ints: h.ints, fds: fds, next: h.next}
}

// RestoreIO rolls the consumable input state back to a SnapshotIO result.
func (h *StdIO) RestoreIO(v interface{}) {
	sn, ok := v.(*stdIOSnapshot)
	if !ok {
		return
	}
	h.ints, h.next = sn.ints, sn.next
	h.fds = make(map[int32]*fileCursor, len(sn.fds))
	for fd, c := range sn.fds {
		c := c
		h.fds[fd] = &c
	}
}

var _ IOSnapshotter = (*StdIO)(nil)
