package fleet

import (
	"repro/internal/simtime"
)

// Adaptive switches on the admission-control feedback loop. When Enabled,
// the static Admission bounds become the controller's starting point and
// every adaptPeriod of simulated time the controller re-tunes three knobs
// inside fixed ranges: the queue-depth bound, the estimated-wait bound, and
// the est-aware gate's queueing-signal margin. This is the fleet analogue
// of the SmartNIC simulator's per-round threshold adjustment: observe what
// the last round let through and what it cost, then move the threshold
// instead of pinning it.
type Adaptive struct {
	Enabled bool
}

// DefaultAdaptive is the controller switched on.
func DefaultAdaptive() Adaptive { return Adaptive{Enabled: true} }

// The controller's tuning: quarter-second reaction time, bounds wide enough
// to span everything the static defaults would pin, margin free to grow
// eightfold under pressure but never below neutral. The queue floor is 1 or
// more: the controller may never cross into 0, which the Admission contract
// reserves for "unbounded".
const (
	adaptPeriod                    = 250 * simtime.Millisecond
	adaptMinQueue, adaptMaxQueue   = 2, 64
	adaptMinWait                   = 250 * simtime.Millisecond
	adaptMaxWait                   = 8 * simtime.Second
	adaptMinMargin, adaptMaxMargin = 1.0, 8.0
)

// controller runs the Adaptive feedback loop. It lives on the machine, so
// the handlers step it in the global (t, lane, seq) event order: the
// control trajectory is part of the deterministic schedule.
type controller struct {
	next simtime.PS // next period boundary

	// Live knob values, mirrored into machine.adm / machine.margin after
	// every step.
	queue  int
	wait   simtime.PS
	margin float64

	// Period counters.
	offloads int
	sheds    int
	misses   int
}

func newController(seed Admission) *controller {
	c := &controller{next: adaptPeriod, queue: seed.MaxQueue, wait: seed.MaxWait, margin: 1}
	if c.queue == 0 {
		c.queue = adaptMaxQueue
	}
	if c.wait == 0 {
		c.wait = adaptMaxWait
	}
	c.clampKnobs()
	return c
}

func (c *controller) noteShed() {
	if c != nil {
		c.sheds++
	}
}

func (c *controller) noteFinish(missed bool) {
	if c != nil {
		c.offloads++
		if missed {
			c.misses++
		}
	}
}

// step applies one control decision from the last period's counters and
// the pool's instantaneous occupancy. The shape is AIMD with a
// multiplicative margin: pressure — sheds at arrival or deadline overruns
// at completion — means admission and the gate let in more than the pool
// could serve in time, so both bounds cut by a quarter and the margin
// grows 1.5x (requests start declining up front, for free, instead of
// wasting an upload to be shed or finishing late). A clean period with
// slot headroom relaxes the bounds additively and decays the margin, so a
// trough recovers the throughput a pinned-conservative static bound would
// forfeit.
func (c *controller) step(busy, slots int) {
	pressure := c.sheds + c.misses
	switch {
	case pressure > 0:
		c.wait -= c.wait / 4
		c.queue -= (c.queue + 3) / 4
		c.margin *= 1.5
	case busy*4 < slots*3:
		c.wait += c.wait / 8
		c.queue++
		c.margin *= 0.9
	}
	c.clampKnobs()
	c.offloads, c.sheds, c.misses = 0, 0, 0
}

func (c *controller) clampKnobs() {
	c.queue = min(max(c.queue, adaptMinQueue), adaptMaxQueue)
	c.wait = min(max(c.wait, adaptMinWait), adaptMaxWait)
	c.margin = min(max(c.margin, adaptMinMargin), adaptMaxMargin)
}
