package interp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/simtime"
)

// Sampler is the guest stack profiler: a Listener that, at every function
// entry and exit — externs and a server's suspension at accept included —
// charges the simulated time since the previous one to the guest call stack
// current until then. The profile is exact: a stack's weight is the
// simulated time it was the current stack, so a function's self time is the
// time it was on top. Because the clock is simulated, it is deterministic
// and the same on both engines, and after Flush the charged total equals the
// machine's Clock minus the clock at Attach to the picosecond.
//
// The stacks are a call tree: an entry finds or adds the current node's
// child for the callee, an exit moves to the parent, and a charge is one add
// to the current node, so once every stack has been seen the profile
// allocates nothing. It needs no instrumented program: both engines report
// calls, returns and externs to any Listener.
type Sampler struct {
	// nodes[0] is the root, the empty stack, charged as "(idle)".
	nodes []stackNode
	cur   int32      // the node of the current stack
	last  simtime.PS // clock up to which time has been charged
}

// stackNode is one distinct call stack: the function on top, the node of
// the stack beneath it (the root's is the root), its first child and next
// sibling (0 for none: the root is nobody's child), and the time charged
// while it was current.
type stackNode struct {
	fn                  *ir.Func
	parent, child, next int32
	weight              int64
}

// NewSampler creates a stack profiler; Attach it to a machine.
func NewSampler() *Sampler {
	return &Sampler{nodes: make([]stackNode, 1)}
}

// Attach makes s the machine's Listener, charging from its current Clock.
// Frames live at that moment are not on s's stack: until the first of them
// exits, time charges to the stacks entered since ("(idle)" for none), and
// their exits, which have no matching entry, are ignored.
func (s *Sampler) Attach(m *Machine) {
	s.last = m.Clock
	m.Listener = s
}

// charge adds [last, clock) to the current stack.
func (s *Sampler) charge(clock simtime.PS) {
	s.nodes[s.cur].weight += int64(clock - s.last)
	s.last = clock
}

// EnterFunc implements Listener: f's stack becomes the current one.
func (s *Sampler) EnterFunc(m *Machine, f *ir.Func) {
	s.charge(m.Clock)
	c := s.nodes[s.cur].child
	for c != 0 && s.nodes[c].fn != f {
		c = s.nodes[c].next
	}
	if c == 0 {
		c = int32(len(s.nodes))
		s.nodes = append(s.nodes, stackNode{fn: f, parent: s.cur, next: s.nodes[s.cur].child})
		s.nodes[s.cur].child = c
	}
	s.cur = c
}

// ExitFunc implements Listener: the caller's stack becomes the current one.
// The root is its own parent, so an exit with no matching entry leaves the
// empty stack current.
func (s *Sampler) ExitFunc(m *Machine, _ *ir.Func) {
	s.charge(m.Clock)
	s.cur = s.nodes[s.cur].parent
}

// EnterBlock implements Listener; block transfers charge nothing.
func (*Sampler) EnterBlock(*Machine, *ir.Func, *ir.Block) {}

// Flush charges the tail interval up to clock, making Total() equal the
// machine's Clock minus the clock at Attach. Call it once after the run.
// Safe on nil.
func (s *Sampler) Flush(clock simtime.PS) {
	if s == nil {
		return
	}
	s.charge(clock)
}

// Total returns the charged simulated time in picoseconds; after Flush it
// equals the machine's final Clock minus the clock at Attach. Safe on nil.
func (s *Sampler) Total() int64 {
	if s == nil {
		return 0
	}
	var sum int64
	for _, n := range s.nodes {
		sum += n.weight
	}
	return sum
}

// folded returns the weight of every stack charged any time, by its folded
// key ("frame;frame;frame"). A node's parent precedes it in nodes, so its
// key is built before the node's own.
func (s *Sampler) folded() map[string]int64 {
	keys := make([]string, len(s.nodes))
	out := make(map[string]int64)
	for i, n := range s.nodes {
		switch {
		case i == 0:
			keys[i] = "(idle)"
		case n.parent == 0:
			keys[i] = n.fn.Nam
		default:
			keys[i] = keys[n.parent] + ";" + n.fn.Nam
		}
		if n.weight > 0 {
			out[keys[i]] += n.weight
		}
	}
	return out
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
	folded := s.folded()
	keys := make([]string, 0, len(folded))
	for k := range folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var err error
		if root != "" {
			_, err = fmt.Fprintf(w, "%s;%s %d\n", root, k, folded[k])
		} else {
			_, err = fmt.Fprintf(w, "%s %d\n", k, folded[k])
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

// FuncStat is one function's profile line: self time (with the function on
// top of the stack) and cumulative time (with it anywhere on the stack,
// counted once per stack for recursion).
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
	for k, w := range s.folded() {
		frames := strings.Split(k, ";")
		self[frames[len(frames)-1]] += w
		seen := make(map[string]bool, len(frames))
		for _, f := range frames {
			if !seen[f] {
				seen[f] = true
				cum[f] += w
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
