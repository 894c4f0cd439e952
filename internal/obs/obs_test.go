package obs

import (
	"testing"
	"unsafe"

	"repro/internal/simtime"
)

// TestEventSize pins the ring's element at 80 bytes: times, kind and track,
// name, four arguments and the job id. The ring stores events by value and
// every Emit copies one, so a field added here costs every traced run; the
// fleet's nil-tracer guards (TestEmitsBehindNilTracer) quote the size.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 80 {
		t.Errorf("obs.Event is %d bytes, want 80", got)
	}
}

func TestRingBufferRetainsNewest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Time: simtime.PS(i), Kind: KMessage, A0: int64(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := int64(i + 2); ev.A0 != want {
			t.Errorf("event %d has A0=%d, want %d (oldest-first order broken)", i, ev.A0, want)
		}
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KPageFault})
	if tr.Enabled() || tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer should be fully inert")
	}
}

// TestDisabledObservabilityZeroAlloc proves the exact operation the
// page-fault hot path performs (one Emit on a disabled tracer) allocates
// nothing.
func TestDisabledObservabilityZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{
			Time: 12345, Dur: 678, Kind: KPageFault, Track: TrackServer,
			Name: "remote", A0: 0x2000_0, A1: 0x2000_0000, A2: 4112,
		})
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledTracerZeroAllocSteadyState: even an enabled tracer is
// allocation-free per event once constructed (the ring is preallocated).
func TestEnabledTracerZeroAllocSteadyState(t *testing.T) {
	tr := NewTracer(64)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Time: 1, Kind: KPageFault, Track: TrackServer, Name: "remote"})
	})
	if allocs != 0 {
		t.Fatalf("enabled tracer allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkPageFaultTraceDisabled is the acceptance benchmark: a disabled
// tracer must add 0 allocs/op (and single-digit ns) to the page-fault hot
// path. Run with -benchmem.
func BenchmarkPageFaultTraceDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{
			Time: simtime.PS(i), Dur: 678, Kind: KPageFault, Track: TrackServer,
			Name: "remote", A0: int64(i), A1: 0x2000_0000, A2: 4112,
		})
	}
}

// BenchmarkPageFaultTraceEnabled measures the enabled-tracer cost of the
// same operation for comparison.
func BenchmarkPageFaultTraceEnabled(b *testing.B) {
	tr := NewTracer(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{
			Time: simtime.PS(i), Dur: 678, Kind: KPageFault, Track: TrackServer,
			Name: "remote", A0: int64(i), A1: 0x2000_0000, A2: 4112,
		})
	}
}
