package offrt

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// serviceSpy stands between the server machine and the session — as its
// SysHost and its page-fault handler — and records what the one service
// call during which the offload aborted did to the server clock, the
// Figure 7 buckets, the task's traffic and the trace.
type serviceSpy struct {
	*Session
	taskID int

	failed          bool
	clock0, clock1  simtime.PS
	comp0, comp1    [interp.NumComponents]simtime.PS
	traffic0        int64       // the task's TrafficBytes before ...
	traffic1        int64       // ... and after the failing call
	events          []obs.Event // emitted during the failing call
	callsAfterAbort int
}

func (sp *serviceSpy) watch(call func()) {
	s := sp.Session
	if sp.failed {
		sp.callsAfterAbort++
		call()
		return
	}
	aborts, n := s.Stats.Aborts, s.Tracer.Len()
	clock0, comp0, traffic0 := s.ep.m.Clock, s.ep.m.Comp, s.PerTask[sp.taskID].TrafficBytes
	call()
	if s.Stats.Aborts == aborts {
		return
	}
	sp.failed = true
	sp.clock0, sp.comp0, sp.traffic0 = clock0, comp0, traffic0
	sp.clock1, sp.comp1, sp.traffic1 = s.ep.m.Clock, s.ep.m.Comp, s.PerTask[sp.taskID].TrafficBytes
	sp.events = s.Tracer.Events()[n:]
}

func (sp *serviceSpy) SendReturn(m *interp.Machine, v uint64) (err error) {
	sp.watch(func() { err = sp.Session.SendReturn(m, v) })
	return err
}

func (sp *serviceSpy) RemoteWrite(m *interp.Machine, out string) (err error) {
	sp.watch(func() { err = sp.Session.RemoteWrite(m, out) })
	return err
}

func (sp *serviceSpy) RemoteOpen(m *interp.Machine, name string) (fd int32, err error) {
	sp.watch(func() { fd, err = sp.Session.RemoteOpen(m, name) })
	return fd, err
}

func (sp *serviceSpy) RemoteRead(m *interp.Machine, fd int32, n int) (data []byte, err error) {
	sp.watch(func() { data, err = sp.Session.RemoteRead(m, fd, n) })
	return data, err
}

func (sp *serviceSpy) RemoteClose(m *interp.Machine, fd int32) (err error) {
	sp.watch(func() { err = sp.Session.RemoteClose(m, fd) })
	return err
}

func (sp *serviceSpy) pageFault(pn uint32) (data []byte, err error) {
	sp.watch(func() { data, err = sp.Session.servePageFault(pn) })
	return data, err
}

// TestEveryServiceAbortsTheSameWay opens a link outage at the exact
// instant of each server-side exchange — every op name the runtime sends
// under, request and reply legs separately — and requires the same abort
// behaviour from all of them: one abort.task event naming the op, no
// service event and no task traffic booked for the failed call, the
// burned retry time charged to the server clock under the service's own
// Figure 7 bucket, a silent link from the abort until the mobile's local
// fallback, and a final result identical to the fault-free run.
func TestEveryServiceAbortsTheSameWay(t *testing.T) {
	twolf := workloadPair(t, "300.twolf")
	// NoPrefetch makes the task fault its working set in over the wire, so
	// one program exercises all seven services.
	pol := Policy{NoPrefetch: true}

	tr := obs.NewTracer(1 << 18)
	clean := twolf.session(t, scaledLink(netsim.Fast80211AC()), pol, WithTracer(tr))
	wantCode, err := clean.sess.RunMobile()
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantMem := clean.io.Out.String(), clean.sess.MemDigest()
	// at returns the server-clock instant the nth fault-free service event
	// of the given kind and name began its exchange.
	at := func(kind obs.Kind, name string, nth int) simtime.PS {
		for _, ev := range tr.Events() {
			if ev.Kind == kind && ev.Name == name {
				if nth == 0 {
					return ev.Time
				}
				nth--
			}
		}
		t.Fatalf("fault-free run has no %v %q event #%d", kind, name, nth)
		return 0
	}
	var backoffs simtime.PS
	for i := 0; i < maxRetries; i++ {
		backoffs += backoffBase << i
	}
	minElapsed := simtime.PS(maxRetries+1)*deadlineFloor + backoffs

	for _, tc := range []struct {
		op string
		// The fault-free service event whose exchange the outage catches.
		kind  obs.Kind
		event string
		nth   int
		// reply lets the request leg through and catches the reply leg.
		reply  bool
		bucket interp.Component
	}{
		{"page.request", obs.KPageFault, "remote", 3, false, interp.CompComm},
		{"page.data", obs.KPageFault, "remote", 3, true, interp.CompComm},
		{"remote.printf", obs.KRemoteIO, "printf", 0, false, interp.CompRemoteIO},
		{"remote.open", obs.KRemoteIO, "open", 0, false, interp.CompRemoteIO},
		{"remote.open", obs.KRemoteIO, "open", 0, true, interp.CompRemoteIO},
		{"remote.read", obs.KRemoteIO, "read", 5, false, interp.CompRemoteIO},
		{"remote.read", obs.KRemoteIO, "read", 5, true, interp.CompRemoteIO},
		{"remote.close", obs.KRemoteIO, "close", 0, false, interp.CompRemoteIO},
		{"finalize", obs.KWriteBack, "", 0, false, interp.CompComm},
	} {
		// The outage opens at the instant the fault-free exchange began; one
		// picosecond later the request leg is already on its way.
		name, outage := tc.op, at(tc.kind, tc.event, tc.nth)
		if tc.reply {
			name, outage = name+"/reply", outage+1
		}
		t.Run(name, func(t *testing.T) {
			ftr := obs.NewTracer(1 << 18)
			env := twolf.session(t, scaledLink(netsim.Fast80211AC()), pol, WithTracer(ftr),
				WithFaults(faults.MustInjector(faults.Plan{
					Outages: []faults.Window{{Start: outage, End: 1 << 62}}})))
			s := env.sess
			spy := &serviceSpy{Session: s, taskID: twolf.tasks[0].TaskID}
			env.server.Sys = spy
			env.server.Mem.Fault = spy.pageFault
			code, err := s.RunMobile()
			if err != nil {
				t.Fatal(err)
			}
			if code != wantCode || env.io.Out.String() != wantOut || s.MemDigest() != wantMem {
				t.Errorf("result diverged from the fault-free run: code %d (want %d), output equal %v, digest %x (want %x)",
					code, wantCode, env.io.Out.String() == wantOut, s.MemDigest(), wantMem)
			}
			if s.Stats.Aborts != 1 || s.Stats.Fallbacks != 1 {
				t.Fatalf("aborts %d, fallbacks %d, want 1 and 1", s.Stats.Aborts, s.Stats.Fallbacks)
			}
			if !spy.failed {
				t.Fatal("the abort did not happen inside a service call")
			}

			// The whole stream: one abort naming the op; from it until the
			// fallback the link is silent and ghost mode books no service.
			events := ftr.Events()
			abortAt, fallbackAt := -1, -1
			for i, ev := range events {
				switch ev.Kind {
				case obs.KAbort:
					if abortAt >= 0 {
						t.Errorf("second abort event: %+v", ev)
					}
					abortAt = i
					if ev.Name != tc.op {
						t.Errorf("abort names op %q, want %q", ev.Name, tc.op)
					}
					if ev.Time != spy.clock1 {
						t.Errorf("abort stamped at %v, want the server clock after the burned retries %v", ev.Time, spy.clock1)
					}
				case obs.KFallback:
					fallbackAt = i
				}
			}
			if abortAt < 0 || fallbackAt < abortAt {
				t.Fatalf("abort at event %d, fallback at %d", abortAt, fallbackAt)
			}
			for _, ev := range events[abortAt:fallbackAt] {
				switch ev.Kind {
				case obs.KMessage, obs.KRemoteIO, obs.KPageFault, obs.KWriteBack:
					t.Errorf("after the abort, before the fallback: %+v", ev)
				}
			}
			if tc.op != "finalize" && spy.callsAfterAbort == 0 {
				t.Error("no ghost-mode service call followed the abort; the silence check is vacuous")
			}

			// The failing call itself.
			for _, ev := range spy.events {
				switch ev.Kind {
				case obs.KRemoteIO, obs.KPageFault, obs.KWriteBack:
					t.Errorf("failed call booked a service event: %+v", ev)
				}
			}
			if spy.traffic1 != spy.traffic0 {
				t.Errorf("failed call counted %d bytes of task traffic", spy.traffic1-spy.traffic0)
			}
			elapsed := spy.clock1 - spy.clock0
			if elapsed < minElapsed {
				t.Errorf("server clock moved %v over the failed call, want at least %v (deadlines + backoffs)", elapsed, minElapsed)
			}
			if tc.op == "finalize" {
				// The abort's own server reset has already wiped the buckets.
				if spy.comp1 != ([interp.NumComponents]simtime.PS{}) {
					t.Errorf("server buckets survive an aborted finalization: %v", spy.comp1)
				}
				return
			}
			for c := range spy.comp1 {
				got, want := spy.comp1[c]-spy.comp0[c], simtime.PS(0)
				if interp.Component(c) == tc.bucket {
					want = elapsed
				}
				if got != want {
					t.Errorf("bucket %d charged %v over the failed call, want %v", c, got, want)
				}
			}
		})
	}
}
