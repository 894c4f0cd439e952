package analyze

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/goldentest"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// sessionTrace builds a deterministic two-offload trace in the runtime's
// emission order: a clean offload, then one that aborts into a fallback.
func sessionTrace() *obs.Tracer {
	ms := simtime.Millisecond
	tr := obs.NewTracer(64)
	// Offload 1: init 3ms, one 2ms fault, 1ms remote I/O, 4ms write-back,
	// 40ms total -> 30ms compute remainder.
	tr.Emit(obs.Event{Time: 1 * ms, Kind: obs.KPrefetch, Track: obs.TrackMobile, A0: 16, A1: 16 * 4096})
	tr.Emit(obs.Event{Time: 1 * ms, Dur: 3 * ms, Kind: obs.KMessage, Track: obs.TrackLink,
		Name: "to_server", A0: 66000})
	tr.Emit(obs.Event{Time: 4 * ms, Kind: obs.KTaskEnter, Track: obs.TrackServer, A0: 1})
	tr.Emit(obs.Event{Time: 9 * ms, Dur: 2 * ms, Kind: obs.KPageFault, Track: obs.TrackServer,
		Name: "remote", A0: 0x7FFFe, A1: 0x7FFF_E000, A2: 4112})
	tr.Emit(obs.Event{Time: 10 * ms, Kind: obs.KPageFault, Track: obs.TrackServer,
		Name: "zero-fill", A0: 0x7FF00}) // zero duration: local, not counted
	tr.Emit(obs.Event{Time: 14 * ms, Dur: 1 * ms, Kind: obs.KRemoteIO, Track: obs.TrackServer,
		Name: "printf", A0: 24})
	tr.Emit(obs.Event{Time: 14 * ms, Dur: 1 * ms, Kind: obs.KMessage, Track: obs.TrackLink,
		Name: "to_server", A0: 64}) // later to_server message: not init
	tr.Emit(obs.Event{Time: 36 * ms, Dur: 4 * ms, Kind: obs.KWriteBack, Track: obs.TrackServer,
		A0: 12, A1: 49152, A2: 9300})
	tr.Emit(obs.Event{Time: 40 * ms, Kind: obs.KTaskExit, Track: obs.TrackServer})
	tr.Emit(obs.Event{Time: 1 * ms, Dur: 40 * ms, Kind: obs.KOffload, Track: obs.TrackMobile,
		Name: "crunch", A0: 1})
	// Offload 2: aborts mid-flight and falls back locally.
	tr.Emit(obs.Event{Time: 50 * ms, Kind: obs.KPrefetch, Track: obs.TrackMobile, A0: 4, A1: 4 * 4096})
	tr.Emit(obs.Event{Time: 50 * ms, Dur: 2 * ms, Kind: obs.KMessage, Track: obs.TrackLink,
		Name: "to_server", A0: 17000})
	tr.Emit(obs.Event{Time: 55 * ms, Kind: obs.KAbort, Track: obs.TrackServer, Name: "page.request", A0: 1})
	tr.Emit(obs.Event{Time: 57 * ms, Dur: 90 * ms, Kind: obs.KFallback, Track: obs.TrackMobile,
		Name: "crunch", A0: 1})
	sessionRadio(tr)
	return tr
}

// sessionRadio records sessionTrace's radio timeline — compute, tx, wait,
// rx, ioserve — emitting one KRadio span per segment into tr (nil: none).
func sessionRadio(tr *obs.Tracer) *energy.Recorder {
	ms := simtime.Millisecond
	rec := energy.NewRecorder(0, energy.Compute)
	rec.Tracer = tr
	rec.Transition(1*ms, energy.TX)
	rec.Transition(4*ms, energy.Wait)
	rec.Transition(36*ms, energy.RX)
	rec.Transition(40*ms, energy.IOServe)
	rec.Finish(42 * ms)
	return rec
}

func TestBreakdown(t *testing.T) {
	ms := simtime.Millisecond
	s := Breakdown(sessionTrace().Events())
	if len(s.Offloads) != 1 || s.Fallbacks != 1 {
		t.Fatalf("offloads/fallbacks = %d/%d, want 1/1", len(s.Offloads), s.Fallbacks)
	}
	o := s.Offloads[0]
	if o.Task != 1 || o.Name != "crunch" || o.Start != 1*ms {
		t.Errorf("identity fields wrong: %+v", o)
	}
	want := Offload{Task: 1, Name: "crunch", Start: 1 * ms, Total: 40 * ms,
		Init: 3 * ms, Compute: 30 * ms, Fault: 2 * ms, IO: 1 * ms, WriteBack: 4 * ms, Faults: 1}
	if o != want {
		t.Errorf("breakdown = %+v, want %+v", o, want)
	}
	// The components partition the total by construction; pin it anyway.
	if got := o.Init + o.Compute + o.Fault + o.IO + o.WriteBack; got != o.Total {
		t.Errorf("components sum to %v, total is %v", got, o.Total)
	}
	if s.Total() != 40*ms {
		t.Errorf("summary total = %v, want 40ms", s.Total())
	}
}

// TestRadioTableMatchesRecorder: the radio table's per-state rows add up to
// the recorder's own EnergyMJ, a pulse's two wait segments on one row.
func TestRadioTableMatchesRecorder(t *testing.T) {
	ms := simtime.Millisecond
	rec := energy.NewRecorder(0, energy.Compute)
	rec.Transition(1*ms, energy.TX)
	rec.Transition(4*ms, energy.Wait)
	rec.Pulse(10*ms, 2*ms, energy.TX)
	rec.Transition(36*ms, energy.RX)
	rec.Finish(40 * ms)

	for _, model := range []energy.PowerModel{energy.FastModel(), energy.SlowModel()} {
		tbl := RadioTable(rec, model).String()
		if want := fmt.Sprintf("note: total %.2f mJ", rec.EnergyMJ(model)); !strings.Contains(tbl, want) {
			t.Errorf("%s: table lacks %q:\n%s", model.Name, want, tbl)
		}
		if want := fmt.Sprintf("wait     %.2f", rec.TimeIn(energy.Wait).Millis()); !strings.Contains(tbl, want) {
			t.Errorf("%s: table lacks one wait row %q:\n%s", model.Name, want, tbl)
		}
	}
}

func TestBreakdownTablesGolden(t *testing.T) {
	s := Breakdown(sessionTrace().Events())
	out := TimeTable(s).String() + "\n" + RadioTable(sessionRadio(nil), energy.FastModel()).String()
	goldentest.Check(t, "breakdown_golden.txt", []byte(out))
}
