// Package faults is a deterministic, seeded link-fault injector. The
// paper's runtime assumes the 802.11n/ac link stays up for the entire
// offload; real mobile links drop frames, spike in latency, corrupt
// payloads and disappear entirely for windows of time. A Plan describes
// such a failure pattern and an Injector replays it — in simulated time,
// fully reproducible from the seed — so the recovery machinery in
// internal/offrt can be exercised and regression-tested bit-for-bit.
//
// The injector is consulted by netsim.LinkStats on every wire transfer;
// everything else (deadlines, retries, fallback) lives in the runtime.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/simtime"
)

// Kind classifies one injected fault.
type Kind uint8

const (
	// None means the transfer proceeds untouched.
	None Kind = iota
	// Drop loses the message entirely; the sender only learns via deadline.
	Drop
	// Corrupt delivers the message but its checksum fails at the receiver.
	Corrupt
	// Delay delivers the message after an added latency spike.
	Delay
	// Outage means the transfer departed inside a scheduled link-outage
	// window; like Drop, but deterministic in time rather than random.
	Outage
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Delay:
		return "delay"
	case Outage:
		return "outage"
	}
	return "unknown"
}

// Window is one scheduled link outage, active for instants in [Start, End).
type Window struct {
	Start, End simtime.PS
}

// Plan is a complete, seed-reproducible fault schedule for one run.
// Rates are per-message probabilities in [0, 1]; windows are absolute
// simulated instants.
type Plan struct {
	// Seed drives the pseudo-random drop/corrupt/delay decisions. Two runs
	// with the same plan and the same transfer sequence inject identical
	// faults.
	Seed uint64
	// DropRate is the probability a message is silently lost.
	DropRate float64
	// CorruptRate is the probability a delivered message fails its CRC.
	CorruptRate float64
	// DelayRate is the probability of a latency spike; the spike length is
	// drawn uniformly from (0, MaxDelay].
	DelayRate float64
	// MaxDelay bounds the latency spike (default 5ms when DelayRate > 0).
	MaxDelay simtime.PS
	// Outages are timed windows during which every transfer is lost.
	Outages []Window
}

// DefaultMaxDelay is used when a plan enables latency spikes without
// bounding them.
const DefaultMaxDelay = 5 * simtime.Millisecond

// Validate checks rates and outage windows.
func (p *Plan) Validate() error {
	for _, r := range [...]struct {
		name string
		v    float64
	}{{"drop", p.DropRate}, {"corrupt", p.CorruptRate}, {"delay", p.DelayRate}} {
		if !(r.v >= 0 && r.v <= 1) { // NaN too
			return fmt.Errorf("faults: %s rate %v outside [0, 1]", r.name, r.v)
		}
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("faults: negative max delay %v", p.MaxDelay)
	}
	for i, w := range p.Outages {
		if w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("faults: outage window %d [%v, %v) is empty or negative", i, w.Start, w.End)
		}
	}
	// Overlapping windows are almost always a spec typo; taking "the union"
	// silently would hide it, so name the offending pair instead. Check over
	// a sorted copy: Validate accepts plans built as literals in any order.
	if len(p.Outages) > 1 {
		sorted := append([]Window(nil), p.Outages...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
		for i := 1; i < len(sorted); i++ {
			prev, cur := sorted[i-1], sorted[i]
			if cur.Start < prev.End {
				return fmt.Errorf("faults: outage window [%v, %v) overlaps [%v, %v)", cur.Start, cur.End, prev.Start, prev.End)
			}
		}
	}
	return nil
}

// Active reports whether the plan can inject anything at all.
func (p *Plan) Active() bool {
	return p != nil && (p.DropRate > 0 || p.CorruptRate > 0 || p.DelayRate > 0 || len(p.Outages) > 0)
}

// String renders the plan in the -faults=<spec> syntax accepted by Parse,
// exactly: Parse(p.String()) equals p for every plan Parse returns.
func (p *Plan) String() string {
	var parts []string
	if p.DropRate > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.DropRate))
	}
	if p.CorruptRate > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%g", p.CorruptRate))
	}
	if p.DelayRate > 0 {
		parts = append(parts, fmt.Sprintf("delay=%g", p.DelayRate))
	}
	if p.MaxDelay > 0 {
		parts = append(parts, "spike="+formatDuration(p.MaxDelay))
	}
	for _, w := range p.Outages {
		parts = append(parts, "outage="+formatDuration(w.Start)+"-"+formatDuration(w.End))
	}
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	return strings.Join(parts, ",")
}

// Parse builds a Plan from a compact spec string, the syntax of the
// cmd/offloadrun -faults flag:
//
//	drop=0.05,corrupt=0.01,delay=0.02,spike=5ms,outage=100ms-250ms,seed=42
//
// Keys may appear in any order; outage may repeat. Durations use Go
// duration syntax (ms, s, ...).
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("faults: empty spec")
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: malformed field %q (want key=value)", field)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			p.Seed = n
		case "drop", "corrupt", "delay":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad %s rate %q: %v", key, val, err)
			}
			switch key {
			case "drop":
				p.DropRate = r
			case "corrupt":
				p.CorruptRate = r
			case "delay":
				p.DelayRate = r
			}
		case "spike":
			d, err := parseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("faults: bad spike %q: %v", val, err)
			}
			p.MaxDelay = d
		case "outage":
			from, to, ok := strings.Cut(val, "-")
			if !ok {
				return nil, fmt.Errorf("faults: malformed outage %q (want start-end)", val)
			}
			start, err := parseDuration(from)
			if err != nil {
				return nil, fmt.Errorf("faults: bad outage start %q: %v", from, err)
			}
			end, err := parseDuration(to)
			if err != nil {
				return nil, fmt.Errorf("faults: bad outage end %q: %v", to, err)
			}
			p.Outages = append(p.Outages, Window{Start: start, End: end})
		default:
			return nil, fmt.Errorf("faults: unknown key %q", key)
		}
	}
	sort.Slice(p.Outages, func(i, j int) bool { return p.Outages[i].Start < p.Outages[j].Start })
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// maxDuration is the longest duration whose picoseconds fit the clock.
const maxDuration = time.Duration(math.MaxInt64 / int64(simtime.Nanosecond))

// parseDuration reads a Go duration as an instant or span on the simulated
// clock: a whole number of nanoseconds.
func parseDuration(s string) (simtime.PS, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	if d > maxDuration {
		return 0, fmt.Errorf("duration %v exceeds the simulated clock's %v", d, maxDuration)
	}
	return simtime.PS(d.Nanoseconds()) * simtime.Nanosecond, nil
}

// formatDuration writes t in the Go duration syntax parseDuration reads,
// to the nanosecond: exact for every value parseDuration returns, where
// simtime.PS.String rounds and writes picoseconds ParseDuration rejects.
func formatDuration(t simtime.PS) string {
	return time.Duration(t / simtime.Nanosecond).String()
}

// Stats counts injected faults by kind.
type Stats struct {
	Drops, Corrupts, Delays, OutageHits int64
}

// Total is the number of injected faults of any kind.
func (s Stats) Total() int64 { return s.Drops + s.Corrupts + s.Delays + s.OutageHits }

// Fate is the injector's verdict for one transfer.
type Fate struct {
	Kind Kind
	// Delay is the added latency when Kind == Delay.
	Delay simtime.PS
}

// Injector replays a Plan. It is not safe for concurrent use, matching
// netsim.LinkStats: the simulation strictly alternates mobile and server,
// so at most one side touches the link at a time.
type Injector struct {
	plan  Plan
	rng   uint64
	stats Stats
}

// NewInjector validates the plan and seeds the PRNG.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.DelayRate > 0 && p.MaxDelay == 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	return &Injector{plan: p, rng: p.Seed}, nil
}

// MustInjector is NewInjector for plans known valid (tests, literals).
func MustInjector(p Plan) *Injector {
	in, err := NewInjector(p)
	if err != nil {
		panic(err)
	}
	return in
}

// Stats returns the per-kind injected-fault counts so far.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// Decide returns the fate of one transfer departing at the given instant.
// A nil injector injects nothing.
func (in *Injector) Decide(at simtime.PS) Fate {
	if in == nil {
		return Fate{}
	}
	for _, w := range in.plan.Outages {
		if at >= w.Start && at < w.End {
			in.stats.OutageHits++
			return Fate{Kind: Outage}
		}
	}
	if in.roll(in.plan.DropRate) {
		in.stats.Drops++
		return Fate{Kind: Drop}
	}
	if in.roll(in.plan.CorruptRate) {
		in.stats.Corrupts++
		return Fate{Kind: Corrupt}
	}
	if in.roll(in.plan.DelayRate) {
		in.stats.Delays++
		// Uniform in (0, MaxDelay]: never zero, so a "delay" fault always
		// perturbs timing and the run still completes deterministically.
		d := simtime.PS(in.next()%uint64(in.plan.MaxDelay)) + 1
		return Fate{Kind: Delay, Delay: d}
	}
	return Fate{}
}

// roll consumes one PRNG draw iff the rate is enabled, keeping disabled
// fault classes free of PRNG state so plans compose predictably.
func (in *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return in.randFloat() < rate
}

// next is splitmix64: tiny, fast, and good enough for fault scheduling;
// crucially it needs no dependencies and is trivially reproducible.
func (in *Injector) next() uint64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (in *Injector) randFloat() float64 {
	return float64(in.next()>>11) / (1 << 53)
}
