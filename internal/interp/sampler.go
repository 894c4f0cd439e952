package interp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/simtime"
)

// Sampler is the guest sampling profiler: it snapshots the simulated call
// stack every sampling period of *simulated* time and attributes the
// elapsed interval to that stack, exactly like a wall-clock sampling
// profiler attributes the period preceding each tick to the stack it
// observes. Because the clock is simulated, the profile is perfectly
// deterministic — two identical runs fold to identical output — and after
// Flush the attributed total equals the machine's Clock to the picosecond.
//
// The stack is maintained at the interpreter's existing call/return points
// on both engines (callRef, the fast engine's frame push and pop, callExtern,
// and a suspended accept until its Resume), and ticks
// are checked with a two-load guard at every clock-advance site, so a
// machine without a sampler pays one predictable branch and the hot loop
// stays 0 allocs/op.
type Sampler struct {
	period simtime.PS
	next   simtime.PS // next sample boundary
	last   simtime.PS // clock up to which time has been attributed

	stack []string
	key   []byte // scratch for the folded key join
	// folded maps the joined stack key to its accumulated weight. The
	// pointer indirection matters: map[string(bytes)] *lookups* are
	// allocation-elided by the compiler but assignments are not, so the hot
	// path reads the pointer with the scratch key and increments through
	// it; the string is only materialized once, when a stack is first seen.
	folded  map[string]*int64
	samples int64
}

// DefaultSamplePeriod is the sampling period used when NewSampler is given
// period <= 0: one millisecond of simulated time, ~10^3 samples per
// simulated second.
const DefaultSamplePeriod = simtime.Millisecond

// NewSampler creates a sampler with the given simulated-clock period
// (DefaultSamplePeriod if period <= 0).
func NewSampler(period simtime.PS) *Sampler {
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	return &Sampler{period: period, folded: make(map[string]*int64)}
}

// Period returns the sampling period.
func (s *Sampler) Period() simtime.PS {
	if s == nil {
		return 0
	}
	return s.period
}

// align positions the sampler on a machine clock: time before clock is
// never attributed, and the first tick fires at the next period boundary.
func (s *Sampler) align(clock simtime.PS) {
	s.last = clock
	s.next = (clock/s.period + 1) * s.period
}

// push/pop maintain the simulated call stack. They are called from the
// interpreters' call/return points only when a sampler is attached. At the
// top-level boundary (empty stack becoming occupied, or the last frame
// leaving) the pending interval is attributed first, so idle time between
// top-level calls stays "(idle)" and a run's tail isn't misattributed
// after the root frame has popped.
func (s *Sampler) push(name string, clock simtime.PS) {
	if len(s.stack) == 0 {
		s.attribute(clock)
	}
	s.stack = append(s.stack, name)
}

func (s *Sampler) pop(clock simtime.PS) {
	if len(s.stack) == 1 {
		s.attribute(clock)
	}
	s.stack = s.stack[:len(s.stack)-1]
}

// take fires one sample: the interval since the last attribution is
// charged to the current stack, and the next boundary moves past clock. A
// single large clock advance (a network wait crossing many boundaries)
// attributes once — the weights are simulated picoseconds, not tick
// counts, so nothing is lost.
func (s *Sampler) take(clock simtime.PS) {
	s.attribute(clock)
	s.next = (clock/s.period + 1) * s.period
}

// attribute charges [last, clock) to the current stack.
func (s *Sampler) attribute(clock simtime.PS) {
	d := clock - s.last
	if d <= 0 {
		return
	}
	s.last = clock
	s.samples++
	s.key = s.key[:0]
	for i, f := range s.stack {
		if i > 0 {
			s.key = append(s.key, ';')
		}
		s.key = append(s.key, f...)
	}
	if len(s.stack) == 0 {
		s.key = append(s.key, "(idle)"...)
	}
	p := s.folded[string(s.key)]
	if p == nil {
		p = new(int64)
		s.folded[string(s.key)] = p
	}
	*p += int64(d)
}

// Flush attributes the tail interval up to clock, making Total() equal the
// machine's Clock exactly. Call it once after the run. Safe on nil.
func (s *Sampler) Flush(clock simtime.PS) {
	if s == nil {
		return
	}
	s.attribute(clock)
	if s.next <= clock {
		s.next = (clock/s.period + 1) * s.period
	}
}

// Samples returns how many attribution ticks fired. Safe on nil.
func (s *Sampler) Samples() int64 {
	if s == nil {
		return 0
	}
	return s.samples
}

// Total returns the attributed simulated time in picoseconds; after Flush
// it equals the machine's final Clock minus the clock at attachment. Safe
// on nil.
func (s *Sampler) Total() int64 {
	if s == nil {
		return 0
	}
	var sum int64
	for _, w := range s.folded {
		sum += *w
	}
	return sum
}

// stacks returns the folded stack keys, sorted (deterministic iteration).
func (s *Sampler) stacks() []string {
	keys := make([]string, 0, len(s.folded))
	for k := range s.folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteFolded writes the profile in folded-stack flamegraph format (one
// "frame;frame;frame weight" line per stack, weights in simulated
// picoseconds), deterministically ordered. A non-empty root is prepended
// as the first frame of every line — callers label the machine ("mobile",
// "server") so both profiles merge into one flamegraph. Safe on nil.
func (s *Sampler) WriteFolded(w io.Writer, root string) error {
	if s == nil {
		return nil
	}
	for _, k := range s.stacks() {
		var err error
		if root != "" {
			_, err = fmt.Fprintf(w, "%s;%s %d\n", root, k, *s.folded[k])
		} else {
			_, err = fmt.Fprintf(w, "%s %d\n", k, *s.folded[k])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Folded returns the folded-stack text (see WriteFolded). Safe on nil.
func (s *Sampler) Folded() string {
	if s == nil {
		return ""
	}
	var sb strings.Builder
	s.WriteFolded(&sb, "")
	return sb.String()
}

// FuncStat is one function's profile line: self time (samples with the
// function on top) and cumulative time (samples with it anywhere on the
// stack, counted once per stack for recursion).
type FuncStat struct {
	Name   string
	SelfPS int64
	CumPS  int64
}

// TopFuncs aggregates the folded stacks per function, ordered by self time
// descending (ties by cumulative time, then name — fully deterministic).
// Safe on nil.
func (s *Sampler) TopFuncs() []FuncStat {
	if s == nil {
		return nil
	}
	self := make(map[string]int64)
	cum := make(map[string]int64)
	for k, w := range s.folded {
		frames := strings.Split(k, ";")
		self[frames[len(frames)-1]] += *w
		seen := make(map[string]bool, len(frames))
		for _, f := range frames {
			if !seen[f] {
				seen[f] = true
				cum[f] += *w
			}
		}
	}
	out := make([]FuncStat, 0, len(cum))
	for name, c := range cum {
		out = append(out, FuncStat{Name: name, SelfPS: self[name], CumPS: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfPS != out[j].SelfPS {
			return out[i].SelfPS > out[j].SelfPS
		}
		if out[i].CumPS != out[j].CumPS {
			return out[i].CumPS > out[j].CumPS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SetSampler attaches (or, with nil, detaches) a sampling profiler to the
// machine. Attribution starts at the machine's current Clock. Unlike a
// profiling Listener, a sampler needs no instrumented program; it works on
// both engines and keeps the fast engine's hot loop allocation-free. Attach
// it between top-level calls: the fast engine looks for a sampler when a
// function activation begins, and one already running keeps deferring its
// segment charges, so its ticks would land at its next call, return or
// page-cache miss instead of at each segment end.
func (m *Machine) SetSampler(s *Sampler) {
	m.sampler = s
	if s != nil {
		s.align(m.Clock)
	}
}

// Sampler returns the attached sampling profiler (nil when detached).
func (m *Machine) Sampler() *Sampler { return m.sampler }
