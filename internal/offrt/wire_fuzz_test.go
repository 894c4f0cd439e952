package offrt

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

// FuzzDecode throws arbitrary byte soup at the wire decoder. The decoder
// must never panic, and anything it accepts must re-encode to a frame of
// exactly WireSize bytes that decodes to the same message (the envelope is
// canonical). A compressed payload it accepts must inflate to no more
// records than the message's page table lists, or be refused.
func FuzzDecode(f *testing.F) {
	seedMsgs := []*Message{
		{Kind: MsgOffloadRequest, TaskID: 1, SP: 0xfff0, Args: []uint64{1, 2, 3},
			PageTable: []uint32{10, 11}, Pages: []PageRecord{{PN: 10, Data: bytes.Repeat([]byte{0xab}, mem.PageSize)}}},
		{Kind: MsgPageRequest, Addr: 0x2000_1000},
		{Kind: MsgRemoteWrite, Data: []byte("hello, fuzz\n")},
		{Kind: MsgFinalize, Ret: 42, Compressed: true, Data: []byte{1, 2, 3}},
		{Kind: MsgShutdown},
	}
	for _, m := range seedMsgs {
		f.Add(m.Encode())
	}
	// Truncations, flipped bytes and garbage tails of a valid frame.
	enc := seedMsgs[0].Encode()
	f.Add(enc[:len(enc)/2])
	flip := append([]byte(nil), enc...)
	flip[9] ^= 0xff
	f.Add(flip)
	f.Add(append(append([]byte(nil), enc...), 0xde, 0xad))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// A body that ends inside each fixed field, behind a valid length prefix
	// and checksum: the cursor's territory.
	for _, frame := range truncatedHeaderFrames() {
		f.Add(frame)
	}
	// A payload that inflates a thousandfold past its one-entry page table.
	f.Add(zeroBomb().Encode())

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		re := m.Encode()
		if m.WireSize() != int64(len(re)) {
			t.Fatalf("WireSize %d, encoded %d bytes: %+v", m.WireSize(), len(re), m)
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("accepted frame did not re-encode cleanly: %v", err)
		}
		if m2.Kind != m.Kind || m2.TaskID != m.TaskID || m2.Ret != m.Ret ||
			len(m2.Args) != len(m.Args) || len(m2.PageTable) != len(m.PageTable) ||
			len(m2.Pages) != len(m.Pages) || !bytes.Equal(m2.Data, m.Data) {
			t.Fatalf("re-encode round trip changed message: %+v vs %+v", m, m2)
		}
		if m.Compressed {
			if pages, err := m.DecompressPages(); err == nil {
				if len(pages) > len(m.PageTable) {
					t.Fatalf("payload inflated to %d records over a %d-page table", len(pages), len(m.PageTable))
				}
				freeFrames(pages)
			}
		}
	})
}
