package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/simtime"
)

// ServerKind classifies one injected server fault.
type ServerKind uint8

const (
	// ServerNone means the server is healthy at the queried instant.
	ServerNone ServerKind = iota
	// Slowdown multiplies the server's compute time by Factor inside the
	// window; output is unchanged, only timing shifts.
	Slowdown
	// Stall freezes the server completely for the window: no progress, no
	// replies, then normal service resumes at the window end.
	Stall
	// Crash kills the server at Start; all in-flight state is lost and the
	// server never comes back.
	Crash
	// Drain is a scheduled maintenance shutdown starting at Start: the
	// server announces it is going away, giving the runtime a chance to
	// migrate in-flight work off it before service stops.
	Drain
)

func (k ServerKind) String() string {
	switch k {
	case ServerNone:
		return "none"
	case Slowdown:
		return "slow"
	case Stall:
		return "stall"
	case Crash:
		return "crash"
	case Drain:
		return "drain"
	}
	return "unknown"
}

// ServerEvent is one scheduled fault on one server. Slowdown and Stall are
// windowed [Start, End); Crash and Drain are open-ended from Start on.
type ServerEvent struct {
	Kind   ServerKind
	Server int
	Start  simtime.PS
	// End closes a Slowdown/Stall window (exclusive); ignored for
	// Crash/Drain, which never end.
	End simtime.PS
	// Factor is the compute-time multiplier for Slowdown (must be > 1).
	Factor float64
}

// ServerPlan is a complete, deterministic server-fault schedule for one
// run. Unlike the link Plan there is no randomness: server faults are
// timed events, so a seed only tags the plan for reporting.
type ServerPlan struct {
	Seed   uint64
	Events []ServerEvent
}

// Active reports whether the plan schedules any fault at all.
func (p *ServerPlan) Active() bool { return p != nil && len(p.Events) > 0 }

// Validate checks every event for shape and rejects conflicting schedules
// on the same server (two crashes, overlapping windows, ...). A nil plan
// is valid: it schedules nothing.
func (p *ServerPlan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if e.Server < 0 {
			return fmt.Errorf("faults: server event %d has negative server %d", i, e.Server)
		}
		if e.Start < 0 {
			return fmt.Errorf("faults: server event %d starts at negative time %v", i, e.Start)
		}
		switch e.Kind {
		case Slowdown:
			if e.End <= e.Start {
				return fmt.Errorf("faults: slowdown window %d [%v, %v) is empty", i, e.Start, e.End)
			}
			if !(e.Factor > 1) || math.IsInf(e.Factor, 1) { // NaN too
				return fmt.Errorf("faults: slowdown %d factor %v must be finite and > 1", i, e.Factor)
			}
			// SlowExtra's stretch of the whole window, computed as it
			// computes it, must end inside the clock's range.
			if !(float64(e.End-e.Start)*(e.Factor-1) < float64(math.MaxInt64-e.End)) {
				return fmt.Errorf("faults: slowdown %d stretches [%v, %v) by x%g, which exceeds the simulated clock",
					i, e.Start, e.End, e.Factor)
			}
		case Stall:
			if e.End <= e.Start {
				return fmt.Errorf("faults: stall window %d [%v, %v) is empty", i, e.Start, e.End)
			}
		case Crash, Drain:
			// Open-ended; End is ignored.
		default:
			return fmt.Errorf("faults: server event %d has invalid kind %d", i, e.Kind)
		}
	}
	// At most one terminal event (crash or drain) per server, and windowed
	// events on one server must not overlap each other.
	perServer := map[int][]ServerEvent{}
	for _, e := range p.Events {
		perServer[e.Server] = append(perServer[e.Server], e)
	}
	for srv, evs := range perServer {
		terminal := 0
		var windows []ServerEvent
		for _, e := range evs {
			if e.Kind == Crash || e.Kind == Drain {
				terminal++
			} else {
				windows = append(windows, e)
			}
		}
		if terminal > 1 {
			return fmt.Errorf("faults: server %d has %d terminal (crash/drain) events, want at most 1", srv, terminal)
		}
		sort.Slice(windows, func(i, j int) bool { return windows[i].Start < windows[j].Start })
		for i := 1; i < len(windows); i++ {
			prev, cur := windows[i-1], windows[i]
			if cur.Start < prev.End {
				return fmt.Errorf("faults: server %d %s window [%v, %v) overlaps %s window [%v, %v)",
					srv, cur.Kind, cur.Start, cur.End, prev.Kind, prev.Start, prev.End)
			}
		}
	}
	return nil
}

// ValidatePool is Validate for a plan run against a pool of n servers,
// numbered 0 to n-1: an event naming any other server is an error, not a
// fault nothing consults.
func (p *ServerPlan) ValidatePool(n int) error {
	if err := p.Validate(); err != nil || p == nil {
		return err
	}
	for i, e := range p.Events {
		if e.Server >= n {
			return fmt.Errorf("faults: server event %d (%s) names server %d, but the pool has %d (servers 0 to %d)",
				i, e.Kind, e.Server, n, n-1)
		}
	}
	return nil
}

// String renders the plan in the -server-faults=<spec> syntax accepted by
// ParseServer, exactly: ParseServer(p.String()) equals p for every plan
// ParseServer returns.
func (p *ServerPlan) String() string {
	var parts []string
	for _, e := range p.Events {
		at := formatDuration(e.Start)
		switch e.Kind {
		case Slowdown:
			parts = append(parts, fmt.Sprintf("slow=%d@%s-%sx%g", e.Server, at, formatDuration(e.End), e.Factor))
		case Stall:
			parts = append(parts, fmt.Sprintf("stall=%d@%s-%s", e.Server, at, formatDuration(e.End)))
		case Crash:
			parts = append(parts, fmt.Sprintf("crash=%d@%s", e.Server, at))
		case Drain:
			parts = append(parts, fmt.Sprintf("drain=%d@%s", e.Server, at))
		}
	}
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	return strings.Join(parts, ",")
}

// ParseServer builds a ServerPlan from a compact spec string, the syntax
// of the -server-faults flag:
//
//	crash=1@300ms,drain=0@1s,slow=2@100ms-2sx3,stall=3@50ms-80ms,seed=7
//
// Each field is kind=<server>@<schedule>; slow/stall take a start-end
// window (slow with a trailing x<factor>), crash/drain a single instant.
// Durations use Go duration syntax (ms, s, ...).
func ParseServer(spec string) (*ServerPlan, error) {
	p := &ServerPlan{}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("faults: empty server spec")
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: malformed server field %q (want key=value)", field)
		}
		if key == "seed" {
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			p.Seed = n
			continue
		}
		var kind ServerKind
		switch key {
		case "slow":
			kind = Slowdown
		case "stall":
			kind = Stall
		case "crash":
			kind = Crash
		case "drain":
			kind = Drain
		default:
			return nil, fmt.Errorf("faults: unknown server fault key %q", key)
		}
		srvStr, sched, ok := strings.Cut(val, "@")
		if !ok {
			return nil, fmt.Errorf("faults: malformed %s %q (want <server>@<schedule>)", key, val)
		}
		srv, err := strconv.Atoi(srvStr)
		if err != nil || srv < 0 {
			return nil, fmt.Errorf("faults: bad server index %q in %q", srvStr, field)
		}
		e := ServerEvent{Kind: kind, Server: srv}
		switch kind {
		case Crash, Drain:
			at, err := parseDuration(sched)
			if err != nil {
				return nil, fmt.Errorf("faults: bad %s time %q: %v", key, sched, err)
			}
			e.Start = at
		case Slowdown, Stall:
			if kind == Slowdown {
				window, factor, ok := strings.Cut(sched, "x")
				if !ok {
					return nil, fmt.Errorf("faults: malformed slow %q (want start-endxfactor)", sched)
				}
				f, err := strconv.ParseFloat(factor, 64)
				if err != nil {
					return nil, fmt.Errorf("faults: bad slowdown factor %q: %v", factor, err)
				}
				e.Factor = f
				sched = window
			}
			from, to, ok := strings.Cut(sched, "-")
			if !ok {
				return nil, fmt.Errorf("faults: malformed %s window %q (want start-end)", key, sched)
			}
			start, err := parseDuration(from)
			if err != nil {
				return nil, fmt.Errorf("faults: bad %s start %q: %v", key, from, err)
			}
			end, err := parseDuration(to)
			if err != nil {
				return nil, fmt.Errorf("faults: bad %s end %q: %v", key, to, err)
			}
			e.Start, e.End = start, end
		}
		p.Events = append(p.Events, e)
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].Start < p.Events[j].Start })
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// CrashAt reports whether the server has crashed at or before the instant.
func (p *ServerPlan) CrashAt(server int, at simtime.PS) bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind == Crash && e.Server == server && at >= e.Start {
			return true
		}
	}
	return false
}

// DrainAt reports whether the server is draining at the instant.
func (p *ServerPlan) DrainAt(server int, at simtime.PS) bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind == Drain && e.Server == server && at >= e.Start {
			return true
		}
	}
	return false
}

// StallUntil returns the end of the stall window covering the instant, if
// the server is stalled at it.
func (p *ServerPlan) StallUntil(server int, at simtime.PS) (simtime.PS, bool) {
	if p == nil {
		return 0, false
	}
	for _, e := range p.Events {
		if e.Kind == Stall && e.Server == server && at >= e.Start && at < e.End {
			return e.End, true
		}
	}
	return 0, false
}

// SlowFactor returns the compute-time multiplier in effect on the server
// at the instant (1 when healthy).
func (p *ServerPlan) SlowFactor(server int, at simtime.PS) float64 {
	if p == nil {
		return 1
	}
	for _, e := range p.Events {
		if e.Kind == Slowdown && e.Server == server && at >= e.Start && at < e.End {
			return e.Factor
		}
	}
	return 1
}

// SlowExtra returns the extra wall time a compute burst occupying
// [from, to) on a healthy server would take under the plan's slowdown
// windows: the overlap with each window is stretched by (factor - 1).
// This lets the runtime charge slowdowns retroactively at its next
// heartbeat boundary without simulating the server cycle by cycle.
func (p *ServerPlan) SlowExtra(server int, from, to simtime.PS) simtime.PS {
	if p == nil || to <= from {
		return 0
	}
	var extra simtime.PS
	for _, e := range p.Events {
		if e.Kind != Slowdown || e.Server != server {
			continue
		}
		lo, hi := max(from, e.Start), min(to, e.End)
		if hi > lo {
			extra += simtime.PS(float64(hi-lo) * (e.Factor - 1))
		}
	}
	return extra
}
