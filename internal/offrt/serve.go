package offrt

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/energy"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// radioTail is how long the Wi-Fi radio stays in its high-power state
// after servicing a request. Programs that issue remote I/O requests
// more often than this never let the radio drop back to the 1350 mW
// wait state — the paper's continuous 2000 mW plateau for gobmk
// (Figure 8(b)), and the reason gobmk and twolf spend *more* battery
// on the fast network than the slow one despite finishing sooner.
const radioTail = 150 * simtime.Millisecond

// ---- SysHost: server side ----

// Accept implements the server's blocking accept: it hands the baton back
// to the mobile, with the finalization of the last task, and waits for the
// next request, so the server is parked here whenever the mobile executes.
func (s *Session) Accept(m *interp.Machine) int32 {
	req := s.ep.park()
	if req.taskID == 0 {
		return 0
	}
	// Initialization, server side: the machine was idle-waiting, so its
	// clock jumps to the request arrival; the prefetched pages and fresh
	// dirty tracking come with it (Figure 5 "Initialization").
	s.ep.m.Clock = simtime.Max(s.ep.m.Clock, req.arrival)
	for _, p := range req.pages {
		s.ep.m.Mem.InstallPage(p.PN, p.Data)
	}
	s.ep.cur.pages = nil // they alias the request frame, which the mobile recycles
	s.ep.m.Mem.TrackDirty = true
	s.ep.m.Mem.ClearDirty()
	// Arm the health monitor for this task and apply any server fault that
	// already matured — a request landing on a crashed or stalled host
	// finds out here, not at its first remote service.
	s.ep.lastBeat = s.ep.m.Clock
	s.ep.ewmaGap, s.ep.strikes = 0, 0
	s.heartbeat("accept")
	return req.taskID
}

// Arg returns argument i of the current request.
func (s *Session) Arg(m *interp.Machine, i int32) uint64 {
	if int(i) < len(s.ep.cur.args) {
		return s.ep.cur.args[i]
	}
	return 0
}

// exchange is the one server-initiated exchange every server-side service
// is made of (Section 4: ask the mobile over the link and wait): the
// request leg to the mobile under reqOp and, when the service has one
// (respOp != ""), the reply leg back under respOp, each sent reliably
// starting from the server clock. The caller books a successful exchange
// its own way; on a terminal failure of either leg the time burned so far
// is charged to the server under comp, the task is aborted naming the op
// that failed, and ok is false — the caller answers from the in-process
// mobile state and the rest of the task runs in ghost mode.
func (s *Session) exchange(reqOp, respOp string, reqSize, respSize int64, comp interp.Component) (req, resp simtime.PS, ok bool) {
	failed := reqOp
	req, ok = s.sendReliable(false, reqSize, s.ep.m.Clock, reqOp)
	if ok && respOp != "" {
		failed = respOp
		resp, ok = s.sendReliable(true, respSize, s.ep.m.Clock+req, respOp)
	}
	if !ok {
		s.ep.m.AddTime(req+resp, comp)
		s.abortTask(failed)
	}
	return req, resp, ok
}

// abortTask abandons the current offload after a terminal wire failure on
// the server side. The rest of the task runs in "ghost mode": every
// remote service (page faults, remote I/O, finalization) is handled
// locally in-process with no wire traffic, so the partitioned binary's
// listen loop completes deterministically and parks at the next Accept —
// but all its effects are discarded and the mobile re-executes locally.
func (s *Session) abortTask(op string) {
	if s.ep.aborted {
		return
	}
	s.ep.aborted = true
	s.Stats.Aborts++
	s.emit(obs.Event{Time: s.ep.m.Clock, Kind: obs.KAbort, Track: obs.TrackServer,
		Name: op, A0: int64(s.ep.cur.taskID)})
}

// SendReturn implements finalization: the server sends the return value,
// the dirty pages, and the updated page table back in one batched,
// compressed message, then drops its copy of the offloading data. The
// write-back is journaled: the whole frame is validated (checksum,
// structure, decompression) before the first page is installed on the
// mobile device, so a corrupted or partial finalization never taints
// unified memory (commit-at-return).
func (s *Session) SendReturn(m *interp.Machine, v uint64) error {
	s.heartbeat("return")
	if s.ep.aborted {
		return s.finishAborted()
	}
	dirty := s.ep.m.Mem.DirtyPages()
	st := s.PerTask[int(s.ep.cur.taskID)]
	st.DirtyPages += len(dirty)
	st.Faults += s.ep.m.Mem.Faults
	s.Stats.DirtyPages += len(dirty)
	s.Stats.Faults += s.ep.m.Mem.Faults

	s.flushOutput()
	if s.ep.aborted {
		// The batched-output flush exhausted its retries.
		return s.finishAborted()
	}
	fin := &Message{Kind: MsgFinalize, TaskID: s.ep.cur.taskID, Ret: v,
		PageTable: s.ep.m.Mem.PresentPages()}
	for _, pn := range dirty {
		fin.Pages = append(fin.Pages, PageRecord{PN: pn, Data: s.ep.m.Mem.PageData(pn)})
	}
	// The pre-compression payload: a page number and the page, per page.
	raw := int64(len(fin.Pages)) * pageRecordBytes
	s.Stats.RawBytesToMobile += raw
	if !s.Policy.NoCompress && raw > 0 {
		// Compression runs on the server only (Section 4): it is far
		// cheaper there than decompression is on the mobile device.
		if _, err := fin.CompressPages(); err != nil {
			return err
		}
		// Server-side compression throughput ~1 GB/s: 1 ns per byte.
		s.ep.m.AddTime(simtime.PS(raw)*simtime.Nanosecond, interp.CompComm)
	}

	// The frame is recycled when SendReturn returns: by then the journal is
	// committed — every page inflated out of the frame, or copied out of it
	// when it went uncompressed — or the task aborted. The compressed payload
	// goes back as soon as the frame holds a copy.
	frame := getFrame()
	defer frames.Put(frame)
	wireBytes := fin.AppendEncode(*frame)
	*frame = wireBytes
	fin.release()
	// The frame holds all the mobile needs, so the server drops its copy of
	// the offloading data now, not after the commit: the page frames it
	// gives back are the ones the write-back inflates into.
	s.ep.dropPages()
	wire := int64(len(wireBytes))
	d, _, ok := s.exchange("finalize", "", wire, 0, interp.CompComm)
	if !ok {
		return s.finishAborted()
	}
	s.Stats.WriteBackWireBytes += wire
	s.emit(obs.Event{Time: s.ep.m.Clock, Dur: d, Kind: obs.KWriteBack,
		Track: obs.TrackServer, A0: int64(len(dirty)), A1: raw, A2: wire})
	st.TrafficBytes += wire

	// Commit the write-back on the mobile device and synchronize clocks:
	// the mobile resumes when the finalization message has arrived.
	ret, err := s.receiveWriteBack(wireBytes)
	if err != nil {
		return err
	}
	if gap := s.ep.m.Clock + d - s.Mobile.Clock; gap > 0 {
		s.Mobile.AddTime(gap, interp.CompComm)
	}
	s.Recorder.Pulse(s.ep.m.Clock, d, energy.RX)
	s.Recorder.Transition(s.Mobile.Clock, energy.Compute)
	s.Comp[interp.CompComm] += d

	// Figure 7 attribution: the server's compute/fptr time happened while
	// the mobile device waited; fold it into the session buckets.
	s.ServerCompute += s.ep.m.Comp[interp.CompCompute]
	s.Comp[interp.CompCompute] += s.ep.m.Comp[interp.CompCompute]
	s.Comp[interp.CompFptr] += s.ep.m.Comp[interp.CompFptr]
	s.Comp[interp.CompRemoteIO] += s.ep.m.Comp[interp.CompRemoteIO]

	s.ep.reset()
	s.ep.rep = &reply{ret: ret}
	return nil
}

// receiveWriteBack is the mobile side of finalization. It validates the
// complete write-back — checksum, structure, and the inflation of every
// page — and only then commits it atomically together with the journaled
// remote output; a frame that fails any check changes nothing. It returns
// the task's result.
func (s *Session) receiveWriteBack(frame []byte) (uint64, error) {
	decoded, err := Decode(frame)
	if err != nil {
		return 0, fmt.Errorf("offrt: finalize message corrupt: %w", err)
	}
	pages, err := decoded.DecompressPages()
	if err != nil {
		return 0, fmt.Errorf("offrt: finalize payload corrupt: %w", err)
	}
	s.commitJournal(pages, decoded.Compressed)
	return decoded.Ret, nil
}

// commitJournal applies the offload's journaled effects at successful
// finalization (commit-at-return): first the validated dirty-page
// write-back, then the remote output in original order. Nothing here can
// fail halfway — validation happened before the first install — so a
// partial write-back never corrupts unified memory.
func (s *Session) commitJournal(pages []PageRecord, inflated bool) {
	commitPages(s.Mobile.Mem, pages, inflated)
	for _, out := range s.ioJournal {
		s.Mobile.IO.Write(out)
	}
	s.ioJournal = nil
}

// commitPages installs a validated write-back into m. Inflated records own
// a page frame each (DecompressPages), and m adopts it; the records of an
// uncompressed write-back alias the wire frame, which is recycled, and m
// copies them.
func commitPages(m *mem.Memory, pages []PageRecord, inflated bool) {
	for _, p := range pages {
		if inflated {
			m.AdoptPage(p.PN, (*[mem.PageSize]byte)(p.Data))
		} else {
			m.InstallPage(p.PN, p.Data)
		}
	}
}

// finishAborted is the ghost-mode finalization: discard the journal and
// every server-side effect of the abandoned task, and release the mobile
// with an abort reply instead of a result. The ghost execution's compute
// never helped anyone, so none of it is folded into the session's
// Figure-7 attribution.
func (s *Session) finishAborted() error {
	s.ioJournal = nil
	s.ep.outBuf = nil
	s.ep.reset()
	s.ep.rep = &reply{aborted: true, retry: s.ep.crashRetry}
	s.ep.aborted, s.ep.crashRetry = false, false
	return nil
}

// reset terminates the offloading process without keeping the data
// (Section 4): drop every server page so the next offload starts cold, as
// in the paper's repeated-invocation traffic numbers, and zero the
// per-task component buckets.
func (e *endpoint) reset() {
	e.dropPages()
	e.m.Mem.Faults = 0
	e.m.Mem.TrackDirty = false
	e.m.Comp = [interp.NumComponents]simtime.PS{}
}

// dropPages drops every page the server holds, giving the private pages'
// frames back to the pool. On a server already emptied it does nothing.
func (e *endpoint) dropPages() {
	for _, pn := range e.m.Mem.PresentPages() {
		e.m.Mem.Drop(pn)
	}
}

// servePageFault is the copy-on-demand path: the server stalls for a
// round trip while the mobile device serves the page.
func (s *Session) servePageFault(pn uint32) ([]byte, error) {
	s.heartbeat("page")
	if _, ok := slices.BinarySearch(s.ep.cur.pageTable, pn); !ok {
		// The page table shipped at initialization says this page does
		// not exist on the mobile device: zero-fill locally, no traffic.
		if !s.ep.aborted {
			s.emit(obs.Event{Time: s.ep.m.Clock, Kind: obs.KPageFault,
				Track: obs.TrackServer, Name: "zero-fill",
				A0: int64(pn), A1: int64(mem.PageAddr(pn))})
		}
		return nil, nil
	}
	data := s.Mobile.Mem.PageData(pn)
	if s.ep.aborted {
		// Ghost mode: serve the page in-process so the abandoned task can
		// run to completion; its results are discarded at finalization.
		return data, nil
	}
	reqMsg := &Message{Kind: MsgPageRequest, Addr: mem.PageAddr(pn)}
	respMsg := &Message{Kind: MsgPageData, Pages: []PageRecord{{PN: pn, Data: data}}}
	reqSize, respSize := reqMsg.WireSize(), respMsg.WireSize()
	req, resp, ok := s.exchange("page.request", "page.data", reqSize, respSize, interp.CompComm)
	if !ok {
		return data, nil
	}
	s.emit(obs.Event{Time: s.ep.m.Clock, Dur: req + resp, Kind: obs.KPageFault,
		Track: obs.TrackServer, Name: "remote",
		A0: int64(pn), A1: int64(mem.PageAddr(pn)), A2: reqSize + respSize})
	s.addTaskTraffic(reqSize + respSize)
	// The mobile radio pulses: receive the request, transmit the page.
	s.Recorder.Pulse(s.ep.m.Clock+req, resp, energy.TX)
	s.ep.m.AddTime(req+resp, interp.CompComm)
	s.Comp[interp.CompComm] += req + resp
	return data, nil
}

// ---- SysHost: remote I/O (Section 3.4) ----

// remoteIO crosses the wire for one remote-I/O service: the req message
// and, when the service has one, its resp, both under op's name. It
// reports whether the mobile was actually asked. In ghost mode — before
// the call or because this exchange just aborted the task — it was not:
// nothing is traced, counted or charged beyond the burned retries, and the
// caller's in-process answer stands in (the local re-execution redoes the
// operation for real). payload is the service's traced size; traffic is
// what Table 4 counts of it, which includes remote-I/O payloads but not
// file names.
func (s *Session) remoteIO(op string, req, resp *Message, payload, traffic int64) bool {
	if s.ep.aborted {
		return false
	}
	respOp, respSize := "", int64(0)
	if resp != nil {
		respOp, respSize = op, resp.WireSize()
	}
	dReq, dResp, ok := s.exchange(op, respOp, req.WireSize(), respSize, interp.CompRemoteIO)
	if !ok {
		return false
	}
	d := dReq + dResp
	s.emit(obs.Event{Time: s.ep.m.Clock, Dur: d, Kind: obs.KRemoteIO,
		Track: obs.TrackServer, Name: strings.TrimPrefix(op, "remote."), A0: payload})
	s.addTaskTraffic(traffic)
	s.Recorder.Pulse(s.ep.m.Clock, d+radioTail, energy.IOServe)
	s.ep.m.AddTime(d, interp.CompRemoteIO)
	return true
}

// addTaskTraffic attributes bytes moved on the current task's behalf to
// its traffic (Table 4 counts all communication). The current task came
// through Offload's lookup, and every registered task has a PerTask entry.
func (s *Session) addTaskTraffic(n int64) {
	s.PerTask[int(s.ep.cur.taskID)].TrafficBytes += n
}

// RemoteWrite ships r_printf output to the mobile device, where it is
// journaled and committed at successful finalization (commit-at-return).
// With Policy.BatchOutput it only ships once 8 KB have accumulated.
func (s *Session) RemoteWrite(m *interp.Machine, out string) error {
	s.heartbeat("printf")
	s.ep.outBuf = append(s.ep.outBuf, out...)
	if !s.Policy.BatchOutput || len(s.ep.outBuf) >= 8<<10 {
		s.flushOutput()
	}
	return nil
}

// flushOutput ships the buffered r_printf output as one message and
// journals it. Output that cannot be shipped — the link just died, or the
// task already runs in ghost mode — is dropped: it would be discarded at
// finalization anyway, and the local re-execution reproduces it.
func (s *Session) flushOutput() {
	if len(s.ep.outBuf) == 0 {
		return
	}
	n := int64(len(s.ep.outBuf))
	if s.remoteIO("remote.printf", &Message{Kind: MsgRemoteWrite, Data: s.ep.outBuf}, nil, n, n) {
		s.ioJournal = append(s.ioJournal, string(s.ep.outBuf))
	}
	s.ep.outBuf = nil
}

// RemoteOpen opens a file in the mobile environment (round trip).
func (s *Session) RemoteOpen(m *interp.Machine, name string) (int32, error) {
	s.heartbeat("open")
	s.remoteIO("remote.open", &Message{Kind: MsgRemoteOpen, Data: []byte(name)},
		&Message{Kind: MsgRemoteOpenResp}, int64(len(name)), 0)
	return s.Mobile.IO.Open(name)
}

// RemoteRead is a remote input operation: it needs a full round trip plus
// the data transfer, which is why twolf/gobmk/h264ref show large remote I/O
// overheads (Section 5.1).
func (s *Session) RemoteRead(m *interp.Machine, fd int32, n int) ([]byte, error) {
	s.heartbeat("read")
	left, err := s.Mobile.IO.Left(fd)
	if err != nil {
		return nil, err
	}
	// The reply's data is the session's read buffer, which the mobile's file
	// fills; the server's guest copies it out before it reads again.
	k := max(0, min(n, left))
	if cap(s.readBuf) < k {
		s.readBuf = make([]byte, k)
	}
	data := s.readBuf[:k]
	if _, err := s.Mobile.IO.Read(fd, data); err != nil {
		return nil, err
	}
	s.remoteIO("remote.read", &Message{Kind: MsgRemoteRead, FD: fd, N: int32(n)},
		&Message{Kind: MsgRemoteReadResp, Data: data}, int64(len(data)), int64(len(data)))
	return data, nil
}

// RemoteClose closes a mobile-side file.
func (s *Session) RemoteClose(m *interp.Machine, fd int32) error {
	s.heartbeat("close")
	s.remoteIO("remote.close", &Message{Kind: MsgRemoteClose, FD: fd}, nil, 0, 0)
	return s.Mobile.IO.Close(fd)
}

var _ interp.SysHost = (*Session)(nil)
