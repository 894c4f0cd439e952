// Package netsim models the wireless link between the mobile device and the
// server. The paper evaluates two environments — 802.11n ("slow", up to
// 144 Mbps) and 802.11ac ("fast", up to 844 Mbps) — and the communication
// component of every result in Figures 6 and 7 is bandwidth/latency arithmetic
// over this link, so a simple deterministic model reproduces the shapes.
package netsim

import (
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Link describes one wireless environment.
type Link struct {
	Name string
	// BandwidthBps is the achievable goodput in bits per second.
	BandwidthBps int64
	// Latency is the one-way message latency.
	Latency simtime.PS
	// PerMessage is the fixed cost of each send operation (driver + MAC
	// overhead). Batching (Section 4) exists to amortize exactly this.
	PerMessage simtime.PS

	// Phases, when non-empty, make the link time-varying: phase i applies
	// until its Until instant, the last phase thereafter. The paper's
	// dynamic estimator exists exactly for such "unexpected slow network
	// environments" (Section 5.1). Assign them before the link reaches
	// offrt.NewSession, which rejects a schedule ValidatePhases refuses:
	// At resolves phases by first match, so unsorted phases would resolve
	// the wrong bandwidth regime.
	Phases []Phase
}

// Phase is one bandwidth regime of a time-varying link.
type Phase struct {
	Until        simtime.PS
	BandwidthBps int64
}

// ValidatePhases checks the phase schedule: Until instants strictly
// increase and no bandwidth is negative.
func (l *Link) ValidatePhases() error {
	for i, p := range l.Phases {
		if p.BandwidthBps < 0 {
			return fmt.Errorf("netsim: phase %d of link %q has negative bandwidth %d", i, l.Name, p.BandwidthBps)
		}
		if i > 0 && l.Phases[i-1].Until >= p.Until {
			return fmt.Errorf("netsim: phases of link %q not in increasing order: phase %d ends at %v, phase %d at %v",
				l.Name, i-1, l.Phases[i-1].Until, i, p.Until)
		}
	}
	return nil
}

// At resolves the effective link at instant t: the same latency and
// per-message cost, with the bandwidth of the active phase.
func (l *Link) At(t simtime.PS) *Link {
	if len(l.Phases) == 0 {
		return l
	}
	eff := *l
	eff.Phases = nil
	_, eff.BandwidthBps = l.PhaseAt(t)
	return &eff
}

// PhaseAt returns the index and bandwidth of the phase active at t
// (-1 and the flat bandwidth for a phase-free link). The session tracer
// uses the index to detect regime changes.
func (l *Link) PhaseAt(t simtime.PS) (int, int64) {
	if len(l.Phases) == 0 {
		return -1, l.BandwidthBps
	}
	for i, p := range l.Phases {
		if t < p.Until {
			return i, p.BandwidthBps
		}
	}
	last := len(l.Phases) - 1
	return last, l.Phases[last].BandwidthBps
}

// Slow80211N returns the paper's slow environment (802.11n). The effective
// goodput is set below the 144 Mbps PHY maximum, as real WLANs achieve.
func Slow80211N() *Link {
	return &Link{
		Name:         "slow(802.11n)",
		BandwidthBps: 110_000_000,
		Latency:      2 * simtime.Millisecond,
		PerMessage:   120 * simtime.Microsecond,
	}
}

// Fast80211AC returns the paper's fast environment (802.11ac).
func Fast80211AC() *Link {
	return &Link{
		Name:         "fast(802.11ac)",
		BandwidthBps: 650_000_000,
		Latency:      1 * simtime.Millisecond,
		PerMessage:   60 * simtime.Microsecond,
	}
}

// Ideal returns an infinitely fast link: the paper's "ideal offloading"
// baseline, execution with zero communication or translation overhead.
func Ideal() *Link {
	return &Link{Name: "ideal", BandwidthBps: 0, Latency: 0, PerMessage: 0}
}

// LTE returns a cellular environment: far lower goodput and much higher
// latency than either WLAN. The fleet's heterogeneous client populations
// mix it with the two 802.11 profiles.
func LTE() *Link {
	return &Link{
		Name:         "lte",
		BandwidthBps: 35_000_000,
		Latency:      25 * simtime.Millisecond,
		PerMessage:   300 * simtime.Microsecond,
	}
}

// Backhaul returns a server-to-server datacenter link: two orders of
// magnitude more bandwidth and far lower latency than any client radio.
// Mid-flight migration ships checkpoints over it, which is why moving an
// offload between servers is so much cheaper than re-faulting the working
// set across the client's WLAN.
func Backhaul() *Link {
	return &Link{
		Name:         "backhaul(10GbE)",
		BandwidthBps: 10_000_000_000,
		Latency:      50 * simtime.Microsecond,
		PerMessage:   5 * simtime.Microsecond,
	}
}

// EdgeWiFi returns the access link to a *nearby* edge server: an 802.11ac
// AP colocated with the edge pool, so the latency is dominated by the air
// interface rather than any wide-area hop. This is the "low RTT, small R"
// tier of the mobile -> edge -> cloud topology.
func EdgeWiFi() *Link {
	return &Link{
		Name:         "edge-wifi",
		BandwidthBps: 500_000_000,
		Latency:      500 * simtime.Microsecond,
		PerMessage:   40 * simtime.Microsecond,
	}
}

// CloudWAN returns the edge-to-cloud backhaul: a provisioned wide-area
// path with plenty of bandwidth but tens of milliseconds of propagation
// delay. Reaching the cloud tier crosses the client's access link *and*
// this leg in series, which is exactly why Equation 1 turns into a 3-way
// placement decision: the cloud's large compute ratio must buy back the
// WAN round trip.
func CloudWAN() *Link {
	return &Link{
		Name:         "cloud-wan",
		BandwidthBps: 1_000_000_000,
		Latency:      40 * simtime.Millisecond,
		PerMessage:   20 * simtime.Microsecond,
	}
}

// profiles is the preset registry, in the order Profiles reports (and the
// resolver's error message enumerates).
var profiles = []struct {
	name string
	mk   func() *Link
}{
	{"slow", Slow80211N},
	{"fast", Fast80211AC},
	{"lte", LTE},
	{"ideal", Ideal},
	{"backhaul", Backhaul},
	{"edge-wifi", EdgeWiFi},
	{"cloud-wan", CloudWAN},
}

// Profiles lists every known link preset name, in registry order.
func Profiles() []string {
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.name
	}
	return names
}

// Profile resolves a named link preset: "slow" (802.11n), "fast"
// (802.11ac), "lte", "ideal", "backhaul" (10GbE server fabric),
// "edge-wifi" (nearby edge access), or "cloud-wan" (edge-to-cloud
// backhaul). Each call returns a fresh Link, so callers may mutate the
// result freely.
func Profile(name string) (*Link, error) {
	for _, p := range profiles {
		if p.name == name {
			return p.mk(), nil
		}
	}
	return nil, fmt.Errorf("netsim: unknown link profile %q (want %s)", name, strings.Join(Profiles(), ", "))
}

// Scaled returns a copy of l with bandwidth divided by factor. The
// workloads shrink their memory footprints by the same factor, so all
// time ratios are preserved while the simulation stays small.
func (l *Link) Scaled(factor int) *Link {
	if factor <= 1 {
		c := *l
		return &c
	}
	c := *l
	c.Name = fmt.Sprintf("%s/%d", l.Name, factor)
	c.BandwidthBps = l.BandwidthBps / int64(factor)
	return &c
}

// TransferTime returns the simulated duration of sending size bytes as one
// message.
func (l *Link) TransferTime(size int64) simtime.PS {
	if l.BandwidthBps == 0 { // ideal link
		return 0
	}
	// Float math avoids int64 overflow at size*8*1e12 for multi-MB
	// payloads; 52 bits of mantissa are ample for picosecond precision
	// at these magnitudes.
	wire := simtime.PS(float64(size) * 8 / float64(l.BandwidthBps) * float64(simtime.Second))
	return l.Latency + l.PerMessage + wire
}

// LinkStats accumulates wire-level traffic accounting (bytes and messages
// per direction) for one offloading run; Table 4's "Com. Traf." column and
// the communication segments of Figure 7 come from here. Session-level
// counters (pages, faults, write-backs) live in offrt.SessionStats — the
// runtime no longer mixes its bookkeeping into the link's counter struct.
type LinkStats struct {
	MsgsToServer   int
	MsgsToMobile   int
	BytesToServer  int64
	BytesToMobile  int64
	CommTimeMobile simtime.PS

	// Tracer, when set, receives one KMessage event per TrySend.
	Tracer *obs.Tracer
	// Job, when non-zero, attributes emitted KMessage/KFault events to the
	// logical offload request currently on the wire (see obs.Event.Job);
	// the session restamps it as jobs begin.
	Job int64

	// Injector, when set, is consulted on every transfer and may drop,
	// corrupt or delay it (see TrySend).
	Injector *faults.Injector
}

// Verdict is the delivery outcome of one TrySend.
type Verdict uint8

const (
	// Delivered means the message arrived intact after the returned time.
	Delivered Verdict = iota
	// Dropped means the message was lost; the sender learns nothing until
	// its deadline expires.
	Dropped
	// Corrupted means the message arrived after the returned time but
	// fails its checksum at the receiver.
	Corrupted
)

func (v Verdict) String() string {
	return [...]string{"delivered", "dropped", "corrupted"}[v]
}

// TotalBytes returns traffic in both directions.
func (s *LinkStats) TotalBytes() int64 { return s.BytesToServer + s.BytesToMobile }

// TrySend accounts one message of size bytes in the given direction,
// departing at instant at, and returns its transfer time and its delivery
// verdict under the installed fault injector. Lost and corrupted messages
// still consume radio time and count as traffic — the sender's radio
// transmitted them; only the receiver never (usefully) saw them. Without
// an injector the verdict is always Delivered.
func (s *LinkStats) TrySend(l *Link, toServer bool, size int64, at simtime.PS) (simtime.PS, Verdict) {
	d := l.TransferTime(size)
	verdict := Delivered
	if f := s.Injector.Decide(at); f.Kind != faults.None {
		switch f.Kind {
		case faults.Delay:
			d += f.Delay
		case faults.Corrupt:
			verdict = Corrupted
		case faults.Drop, faults.Outage:
			verdict = Dropped
		}
		s.Tracer.Emit(obs.Event{Time: at, Kind: obs.KFault, Track: obs.TrackLink, Name: f.Kind.String(), A0: size, A1: int64(f.Delay), Job: s.Job})
	}
	dir := "to_mobile"
	if toServer {
		s.MsgsToServer++
		s.BytesToServer += size
		dir = "to_server"
	} else {
		s.MsgsToMobile++
		s.BytesToMobile += size
	}
	s.CommTimeMobile += d
	s.Tracer.Emit(obs.Event{Time: at, Dur: d, Kind: obs.KMessage, Track: obs.TrackLink, Name: dir, A0: size, Job: s.Job})
	return d, verdict
}
