// Package profile implements the hot function/loop profiler of Section 3.1.
//
// The profiler attaches to an interpreter Machine as an execution listener
// and measures, for every function and every natural loop, the metrics the
// performance estimator consumes (Table 3): cumulative execution time,
// invocation count, and memory footprint (distinct pages touched while the
// candidate is live). Profiling runs use a *profiling input*; the paper
// evaluates with a different input, and so do the workloads here.
package profile

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ir/analysis"
	"repro/internal/mem"
	"repro/internal/simtime"
)

// CandidateKind distinguishes function candidates from loop candidates.
type CandidateKind int

const (
	KindFunc CandidateKind = iota
	KindLoop
)

// Candidate identifies one profiled region: a function, or a natural loop
// within a function.
type Candidate struct {
	Kind CandidateKind
	Fn   *ir.Func
	Loop *analysis.Loop // nil for functions
}

// Name returns the candidate's report name, e.g. "getAITurn" or
// "getAITurn/for_i". Loop offload targets in the paper print as
// "<fn>_<loop>" (e.g. main_for.cond); Display follows that convention.
func (c Candidate) Name() string {
	if c.Kind == KindFunc {
		return c.Fn.Nam
	}
	return c.Fn.Nam + "/" + c.Loop.Name()
}

// Display returns the paper-style target name.
func (c Candidate) Display() string {
	if c.Kind == KindFunc {
		return c.Fn.Nam
	}
	return c.Fn.Nam + "_" + c.Loop.Header.Nam
}

// Stats aggregates one candidate's measurements.
type Stats struct {
	Candidate Candidate
	// Time is cumulative execution time spent with the candidate live
	// (inclusive of callees, like the paper's 26.0s for getAITurn within
	// 27.0s runGame).
	Time simtime.PS
	// SelfTime is the exclusive time: Time minus the time spent in called
	// functions (function candidates only; loops report zero).
	SelfTime simtime.PS
	// Invocations counts entries (calls, or loop entries).
	Invocations int
	// Pages is the number of distinct memory pages touched while live.
	Pages int
	// MemBytes is Pages * PageSize: the estimator's M in Equation 1.
	MemBytes int64

	// active counts live activations so recursive re-entry is not
	// double-counted: time accumulates only when the outermost activation
	// exits.
	active  int
	pageSet pageSet
}

// Report is the result of one profiling run.
type Report struct {
	// Total is the whole-program execution time on the profiling machine.
	Total simtime.PS
	// ByName maps candidate Name() to stats.
	ByName map[string]*Stats
}

// Get returns stats for a candidate name ("fn" or "fn/loop").
func (r *Report) Get(name string) *Stats { return r.ByName[name] }

// Sorted returns all stats ordered by decreasing time, then name.
func (r *Report) Sorted() []*Stats {
	out := make([]*Stats, 0, len(r.ByName))
	for _, s := range r.ByName {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Candidate.Name() < out[j].Candidate.Name()
	})
	return out
}

// Coverage returns the fraction of total program time spent in the named
// candidate (Table 4 "Cover.").
func (r *Report) Coverage(name string) float64 {
	s := r.ByName[name]
	if s == nil || r.Total == 0 {
		return 0
	}
	return float64(s.Time) / float64(r.Total)
}

func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile: total %v\n", r.Total)
	for _, s := range r.Sorted() {
		fmt.Fprintf(&sb, "  %-28s time %12v  inv %6d  mem %8.2f MB\n",
			s.Candidate.Name(), s.Time, s.Invocations, float64(s.MemBytes)/(1<<20))
	}
	return sb.String()
}

// Profiler is an interp.Listener plus a memory touch hook.
type Profiler struct {
	machine *interp.Machine

	funcStats map[*ir.Func]*Stats
	loopStats map[*analysis.Loop]*Stats
	loopInfo  map[*ir.Func]innerLoops

	// Active function activations, innermost last.
	stack []activation

	// lastPage is the page of the latest recorded touch while the innermost
	// live region is still the one that recorded it (or one that has since
	// absorbed it), so that touching it again adds nothing; noPage once a
	// region has opened.
	lastPage uint32

	// spare holds the storage of closed regions' page sets, for the next
	// region that touches a page to take.
	spare []pageSet
}

// noPage is no page's number: addresses are 32 bits, page numbers 20.
const noPage = ^uint32(0)

// pageSet is the set of pages a live region has seen, or a candidate's
// footprint: a sparse bitset, one word per 64-page span that holds a page,
// sorted by span. A region's set takes its storage on the first touch — most
// activations of small helpers touch nothing — from the sets of regions that
// closed before (Profiler.spare).
type pageSet []pageWord

// pageWord is the pages of one span: bit i is page key<<6 | i.
type pageWord struct {
	key  uint32
	bits uint64
}

// search returns the index of the word with key, or where it would go.
func (s pageSet) search(key uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if s[h].key < key {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// add adds page pn to the set.
func (s *pageSet) add(pn uint32) {
	key, bit := pn>>6, uint64(1)<<(pn&63)
	i := s.search(key)
	if i < len(*s) && (*s)[i].key == key {
		(*s)[i].bits |= bit
		return
	}
	*s = slices.Insert(*s, i, pageWord{key, bit})
}

// has reports whether page pn is in the set.
func (s pageSet) has(pn uint32) bool {
	i := s.search(pn >> 6)
	return i < len(s) && s[i].key == pn>>6 && s[i].bits&(1<<(pn&63)) != 0
}

// len returns the number of pages in the set.
func (s pageSet) len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w.bits)
	}
	return n
}

// union adds every page of src to the set and returns how many were new.
// Spans both sets hold are merged in place; the spans only src holds are
// then merged in from the back, so the set grows at most once.
func (s *pageSet) union(src pageSet) int {
	d := *s
	added, missing := 0, 0
	i := 0
	for _, w := range src {
		for i < len(d) && d[i].key < w.key {
			i++
		}
		if i < len(d) && d[i].key == w.key {
			added += bits.OnesCount64(w.bits &^ d[i].bits)
			d[i].bits |= w.bits
		} else {
			added += bits.OnesCount64(w.bits)
			missing++
		}
	}
	if missing == 0 {
		return added
	}
	n := len(d)
	d = slices.Grow(d, missing)[:n+missing]
	i, k := n-1, n+missing-1
	for j := len(src) - 1; j >= 0; {
		switch {
		case i >= 0 && d[i].key > src[j].key:
			d[k] = d[i]
			i, k = i-1, k-1
		case i >= 0 && d[i].key == src[j].key:
			j-- // merged in place above
		default:
			d[k] = src[j]
			j, k = j-1, k-1
		}
	}
	*s = d
	return added
}

// Page accounting: the live regions nest — every open loop of every
// activation on the stack, innermost last — and a page touched while a
// region is live counts for it and for every region enclosing it. A touch
// is therefore recorded once, in the innermost live region, and a region
// that closes hands its set to the region enclosing it (absorb); the
// candidate's footprint is the union over its closed activations
// (mergePages). One touch costs one bit set in a sparse page bitset
// (pageSet) whatever the stack depth; a union is a merge of two sorted word
// lists, and a dead set's storage serves the next region that touches a page.
//
// The machine's page caches report a page when they fill an entry, not on
// every hit (mem.Memory.Touch), so a region that opens invalidates them
// (regionOpened): its first access to each page misses and is reported.
// Closing needs nothing — a hit is on an entry filled since the last region
// opened, so its page is already in the set of the region that was innermost
// then, and absorb has since handed that set to whichever region is
// innermost now.

type activation struct {
	stats   *Stats
	fn      *ir.Func
	inner   innerLoops // fn's loop structure
	entered simtime.PS
	pages   pageSet
	// loops currently active within this function activation.
	loops []loopActivation
	cur   *analysis.Loop // innermost loop containing the current block
	// calleeTime accumulates time spent in functions this activation
	// called, for self-time accounting.
	calleeTime simtime.PS
}

type loopActivation struct {
	stats   *Stats
	loop    *analysis.Loop
	entered simtime.PS
	pages   pageSet
}

// innerLoops holds, for each block of one function by ir.Block.Index, its
// innermost containing loop (nil if none).
type innerLoops []*analysis.Loop

// Attach builds a profiler for m and registers its hooks. Call Detach when
// done. m must report every join point the profiler listens on: a
// fast-engine machine needs a program compiled with
// interp.CompileConfig.Instrument.
func Attach(m *interp.Machine) (*Profiler, error) {
	if !m.Instrumented() {
		return nil, fmt.Errorf("profile: machine %s runs a program compiled without profiling hooks (set interp.CompileConfig.Instrument)", m.Name)
	}
	p := &Profiler{
		machine:   m,
		funcStats: make(map[*ir.Func]*Stats),
		loopStats: make(map[*analysis.Loop]*Stats),
		loopInfo:  make(map[*ir.Func]innerLoops),
		lastPage:  noPage,
	}
	for _, f := range m.Mod.Funcs {
		if f.IsExtern() {
			continue
		}
		cfg, err := analysis.BuildCFG(f)
		if err != nil {
			return nil, err
		}
		forest := analysis.FindLoops(cfg, analysis.Dominators(cfg))
		inner := make(innerLoops, len(f.Blocks))
		for i, b := range f.Blocks {
			if b.Index != i {
				return nil, fmt.Errorf("profile: %s.%s has a stale block index (run Renumber after mutating the function)", f.Nam, b.Nam)
			}
		}
		// Loops are sorted outermost-first; later (inner) assignments win.
		for _, l := range forest.Loops {
			for b := range l.Blocks {
				if cur := inner[b.Index]; cur == nil || len(l.Blocks) < len(cur.Blocks) {
					inner[b.Index] = l
				}
			}
		}
		p.loopInfo[f] = inner
		p.funcStats[f] = &Stats{Candidate: Candidate{Kind: KindFunc, Fn: f}}
		for _, l := range forest.Loops {
			p.loopStats[l] = &Stats{Candidate: Candidate{Kind: KindLoop, Fn: f, Loop: l}}
		}
	}
	m.Listener = p
	m.Mem.Touch = p.onTouch
	return p, nil
}

// Detach removes the profiler's hooks from the machine.
func (p *Profiler) Detach() {
	p.machine.Listener = nil
	p.machine.Mem.Touch = nil
}

func (p *Profiler) onTouch(pn uint32) {
	if pn == p.lastPage || len(p.stack) == 0 {
		return
	}
	set := p.stack[len(p.stack)-1].innermost()
	if *set == nil {
		if n := len(p.spare); n > 0 {
			*set, p.spare = p.spare[n-1], p.spare[:n-1]
		}
	}
	set.add(pn)
	p.lastPage = pn
}

// innermost returns the page set of the activation's innermost live region:
// its innermost open loop, else the activation itself.
func (a *activation) innermost() *pageSet {
	if n := len(a.loops); n > 0 {
		return &a.loops[n-1].pages
	}
	return &a.pages
}

// absorb adds the pages of a region that just closed to the region enclosing
// it. src is dead afterwards, so the larger of the two sets is kept and the
// other's storage is kept for a region to come.
func (p *Profiler) absorb(dst *pageSet, src pageSet) {
	if len(*dst) < len(src) {
		*dst, src = src, *dst
	}
	dst.union(src)
	p.recycle(src)
}

// recycle keeps the storage of a dead page set for a region to come.
func (p *Profiler) recycle(s pageSet) {
	if cap(s) > 0 {
		p.spare = append(p.spare, s[:0])
	}
}

// regionOpened starts the page accounting of a region that just became the
// innermost live one: nothing seen so far counts as seen by it.
func (p *Profiler) regionOpened(m *interp.Machine) {
	p.lastPage = noPage
	m.Mem.Invalidate()
}

// EnterFunc implements interp.Listener.
func (p *Profiler) EnterFunc(m *interp.Machine, f *ir.Func) {
	st := p.funcStats[f]
	if st == nil {
		return
	}
	st.Invocations++
	st.active++
	p.stack = append(p.stack, activation{stats: st, fn: f, inner: p.loopInfo[f], entered: m.Clock})
	p.regionOpened(m)
}

// ExitFunc implements interp.Listener. An extern's exit closes nothing:
// EnterFunc opened no activation for it.
func (p *Profiler) ExitFunc(m *interp.Machine, f *ir.Func) {
	n := len(p.stack)
	if n == 0 || f.IsExtern() {
		return
	}
	act := &p.stack[n-1]
	// Close any loops still active (function returned from inside a loop).
	for len(act.loops) > 0 {
		p.closeLoop(m, act)
	}
	act.stats.active--
	elapsed := m.Clock - act.entered
	if act.stats.active == 0 {
		act.stats.Time += elapsed
	}
	act.stats.SelfTime += elapsed - act.calleeTime
	mergePages(act.stats, act.pages)
	if n > 1 {
		caller := &p.stack[n-2]
		caller.calleeTime += elapsed
		p.absorb(caller.innermost(), act.pages)
	} else {
		p.recycle(act.pages)
	}
	p.stack = p.stack[:n-1]
}

// EnterBlock implements interp.Listener: it tracks loop entry and exit by
// watching the innermost-loop assignment of each executed block.
func (p *Profiler) EnterBlock(m *interp.Machine, f *ir.Func, b *ir.Block) {
	if len(p.stack) == 0 {
		return
	}
	act := &p.stack[len(p.stack)-1]
	if act.fn != f {
		return
	}
	target := act.inner[b.Index]
	if target == act.cur {
		// Re-entering the header of the current loop is a new iteration,
		// not a new activation; nothing to do.
		return
	}
	// Close loops that do not contain the new block.
	for len(act.loops) > 0 && !loopContains(act.loops[len(act.loops)-1].loop, target) {
		p.closeLoop(m, act)
	}
	// Open the loops between the innermost one still open (it contains the
	// target) and the target; they are found from the inside out and must
	// stack from the outside in.
	var top *analysis.Loop
	base := len(act.loops)
	if base > 0 {
		top = act.loops[base-1].loop
	}
	for l := target; l != top; l = l.Parent {
		st := p.loopStats[l]
		st.Invocations++
		st.active++
		act.loops = append(act.loops, loopActivation{stats: st, loop: l, entered: m.Clock})
		p.regionOpened(m)
	}
	slices.Reverse(act.loops[base:])
	act.cur = target
}

// closeLoop closes the activation's innermost open loop.
func (p *Profiler) closeLoop(m *interp.Machine, act *activation) {
	n := len(act.loops) - 1
	la := &act.loops[n]
	la.stats.active--
	if la.stats.active == 0 {
		la.stats.Time += m.Clock - la.entered
	}
	mergePages(la.stats, la.pages)
	pages := la.pages
	act.loops = act.loops[:n]
	p.absorb(act.innermost(), pages)
}

func loopContains(outer, inner *analysis.Loop) bool {
	for l := inner; l != nil; l = l.Parent {
		if l == outer {
			return true
		}
	}
	return false
}

// mergePages adds one closed activation's pages to its candidate's
// footprint: the distinct pages over all of the candidate's activations.
func mergePages(st *Stats, pages pageSet) {
	if len(pages) == 0 {
		return
	}
	st.Pages += st.pageSet.union(pages)
	st.MemBytes = int64(st.Pages) * mem.PageSize
}

// Run profiles one whole execution of the machine's main function and
// returns the report.
func Run(m *interp.Machine) (*Report, error) {
	p, err := Attach(m)
	if err != nil {
		return nil, err
	}
	defer p.Detach()
	start := m.Clock
	if _, err := m.RunMain(); err != nil {
		return nil, err
	}
	return p.Report(m.Clock - start), nil
}

// Report finalizes the collected statistics.
func (p *Profiler) Report(total simtime.PS) *Report {
	r := &Report{Total: total, ByName: make(map[string]*Stats)}
	for _, st := range p.funcStats {
		if st.Invocations > 0 {
			r.ByName[st.Candidate.Name()] = st
		}
	}
	for _, st := range p.loopStats {
		if st.Invocations > 0 {
			r.ByName[st.Candidate.Name()] = st
		}
	}
	return r
}
