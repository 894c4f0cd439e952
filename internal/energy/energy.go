// Package energy models the mobile device's battery consumption
// (Section 5.2). The paper measures, with a Monsoon power monitor, roughly
// 300 mW idle, 1350 mW waiting for signals, 2000 mW receiving, and
// 2000-5000 mW transmitting; remote I/O service draws ~2000 mW on 802.11ac
// versus ~1700 mW on 802.11n (Figure 8(b)/(c)), which is why gobmk spends
// *more* battery on the fast network. Energy is the integral of state power
// over simulated time, and the recorded segments double as the Figure 8
// power-over-time traces.
package energy

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// State is the mobile device's power state.
type State int

const (
	Idle    State = iota // screen-on idle
	Compute              // executing the program locally
	Wait                 // blocked while the server computes
	RX                   // receiving data
	TX                   // transmitting data
	IOServe              // servicing a remote I/O request
	NumStates
)

func (s State) String() string { return stateNames[s] }

// PowerModel gives the power draw of each state in milliwatts.
type PowerModel struct {
	Name string
	MW   [NumStates]float64
}

// FastModel models the 802.11ac environment.
func FastModel() PowerModel {
	var m PowerModel
	m.Name = "fast"
	m.MW[Idle] = 300
	m.MW[Compute] = 2200
	m.MW[Wait] = 1350
	m.MW[RX] = 2000
	m.MW[TX] = 4500
	m.MW[IOServe] = 2000
	return m
}

// SlowModel models the 802.11n environment: lower radio power, notably for
// remote I/O service (1700 mW vs 2000 mW, Figure 8(c)).
func SlowModel() PowerModel {
	var m PowerModel
	m.Name = "slow"
	m.MW[Idle] = 300
	m.MW[Compute] = 2200
	m.MW[Wait] = 1350
	m.MW[RX] = 1700
	m.MW[TX] = 2000
	m.MW[IOServe] = 1700
	return m
}

// Segment is one maximal interval in a single state.
type Segment struct {
	State State
	Start simtime.PS
	End   simtime.PS
}

// Recorder accumulates the mobile device's power-state timeline.
type Recorder struct {
	segs []Segment
	cur  State
	at   simtime.PS
	done bool

	// Tracer, when set, receives one KRadio span per closed segment, so
	// the Figure 8 radio power timeline appears in the exported trace.
	Tracer *obs.Tracer
}

// stateNames provides static strings for trace events (State.String
// indexes the same table; sharing constants keeps Emit allocation-free).
var stateNames = [NumStates]string{"idle", "compute", "wait", "rx", "tx", "ioserve"}

// NewRecorder starts recording at time start in the given state.
func NewRecorder(start simtime.PS, s State) *Recorder {
	return &Recorder{cur: s, at: start}
}

// Transition closes the current segment at time t and enters state s.
// Out-of-order times are clamped forward (zero-length segments are fine).
func (r *Recorder) Transition(t simtime.PS, s State) {
	if r.done {
		return
	}
	if t < r.at {
		t = r.at
	}
	if t > r.at {
		r.segs = append(r.segs, Segment{State: r.cur, Start: r.at, End: t})
		r.Tracer.Emit(obs.Event{Time: r.at, Dur: t - r.at, Kind: obs.KRadio,
			Track: obs.TrackRadio, Name: stateNames[r.cur]})
	}
	r.cur = s
	r.at = t
}

// Pulse records a burst of state s for duration d starting at t, returning
// to the current state afterwards. Used for page-fault service and remote
// I/O bursts while the device otherwise waits.
func (r *Recorder) Pulse(t, d simtime.PS, s State) {
	if d <= 0 {
		return
	}
	prev := r.cur
	r.Transition(t, s)
	r.Transition(t+d, prev)
}

// Finish closes the timeline at time t.
func (r *Recorder) Finish(t simtime.PS) {
	r.Transition(t, r.cur)
	r.done = true
}

// Segments returns the recorded timeline.
func (r *Recorder) Segments() []Segment { return r.segs }

// Duration returns the recorded span.
func (r *Recorder) Duration() simtime.PS {
	if len(r.segs) == 0 {
		return 0
	}
	return r.segs[len(r.segs)-1].End - r.segs[0].Start
}

// EnergyMJ integrates power over the timeline: millijoules.
func (r *Recorder) EnergyMJ(m PowerModel) float64 {
	var mj float64
	for _, s := range r.segs {
		mj += m.MW[s.State] * (s.End - s.Start).Seconds()
	}
	return mj
}

// TimeIn returns cumulative time spent in state s.
func (r *Recorder) TimeIn(s State) simtime.PS {
	var d simtime.PS
	for _, seg := range r.segs {
		if seg.State == s {
			d += seg.End - seg.Start
		}
	}
	return d
}

// Trace samples the instantaneous power at steps of dt, producing the
// Figure 8 power-over-time series.
func (r *Recorder) Trace(m PowerModel, dt simtime.PS) []float64 {
	if len(r.segs) == 0 || dt <= 0 {
		return nil
	}
	start := r.segs[0].Start
	end := r.segs[len(r.segs)-1].End
	n := int((end-start)/dt) + 1
	out := make([]float64, 0, n)
	si := 0
	for t := start; t < end; t += dt {
		for si < len(r.segs)-1 && t >= r.segs[si].End {
			si++
		}
		out = append(out, m.MW[r.segs[si].State])
	}
	return out
}

// RenderTrace draws an ASCII sparkline of the trace for terminal reports.
func RenderTrace(trace []float64, maxMW float64, width int) string {
	if len(trace) == 0 {
		return ""
	}
	if width <= 0 {
		width = 80
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	step := float64(len(trace)) / float64(width)
	if step < 1 {
		step = 1
	}
	var sb strings.Builder
	for i := 0.0; int(i) < len(trace) && sb.Len() < width*4; i += step {
		v := trace[int(i)]
		g := int(v / maxMW * float64(len(glyphs)-1))
		if g < 0 {
			g = 0
		}
		if g >= len(glyphs) {
			g = len(glyphs) - 1
		}
		sb.WriteRune(glyphs[g])
	}
	return sb.String()
}

// LocalEnergyMJ is the baseline: the whole program computed locally for
// duration d.
func LocalEnergyMJ(m PowerModel, d simtime.PS) float64 {
	return m.MW[Compute] * d.Seconds()
}

// Summary formats per-state time and total energy.
func (r *Recorder) Summary(m PowerModel) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "energy %.1f mJ over %v:", r.EnergyMJ(m), r.Duration())
	for s := State(0); s < NumStates; s++ {
		if d := r.TimeIn(s); d > 0 {
			fmt.Fprintf(&sb, " %s=%v", s, d)
		}
	}
	return sb.String()
}
