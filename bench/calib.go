package main

import "time"

// The host this benchmark is judged on is a few cores of a shared machine,
// and its speed moves by 20-50 % for minutes at a time, in CPU time as much
// as in wall-clock time: whole runs land in a slow or a fast spell, and no
// summary of the passes inside one run can tell a slow host from a slow
// program. So every timed section is bracketed by a calibration: a fixed
// piece of work that lives in this file, touches no code of the repository,
// and is shaped like the two things the workloads spend their time in — a
// discrete-event loop on a binary heap that allocates per event (the fleet
// engine), and a switch-dispatched register machine over a small memory (the
// guest interpreter). wall_s and setup_s are reported in seconds of a host on
// which the calibration takes calibNominalS; the raw times are kept beside
// them.

// calibNominalS is the calibration's time on the sandbox this was written
// on when it is quiet, so that wall_s there reads close to the stopwatch.
const calibNominalS = 0.092

var calibSink uint64

type calibEvent struct {
	t  uint64
	id uint32
}

type calibJob struct {
	id  uint32
	due uint64
	pad [4]uint64
}

// calibrator holds the two kernels' state (about 3.5 MiB of live heap).
type calibrator struct {
	events, instrs int // work per sample; only the tests shrink it

	heap []calibEvent
	jobs []*calibJob
	rng  splitmix
	mem  []uint64
	prog [64][4]uint8
}

func newCalibrator(s sizes) *calibrator {
	c := &calibrator{events: s.calibEvents, instrs: s.calibInstrs, rng: 1}
	const entities = 1 << 15
	c.jobs = make([]*calibJob, entities)
	for i := 0; i < entities; i++ {
		c.push(calibEvent{c.rng.next() >> 40, uint32(i)})
	}
	c.mem = make([]uint64, 1<<17)
	for i := range c.prog {
		r := c.rng.next()
		c.prog[i] = [4]uint8{uint8(r % 8), uint8(r >> 8 % 16), uint8(r >> 16 % 16), uint8(r >> 24 % 16)}
	}
	c.sample() // first touch
	return c
}

func (c *calibrator) push(e calibEvent) {
	h := append(c.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].t <= h[i].t {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.heap = h
}

func (c *calibrator) pop() calibEvent {
	h := c.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].t < h[l].t {
			l = r
		}
		if h[i].t <= h[l].t {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	c.heap = h
	return top
}

// runEvents pops the earliest of 32 768 pending events, allocates the job
// it starts and schedules that job's completion, c.events times.
func (c *calibrator) runEvents() {
	for k := 0; k < c.events; k++ {
		e := c.pop()
		j := &calibJob{id: e.id, due: e.t + c.rng.next()>>44}
		c.jobs[e.id] = j
		c.push(calibEvent{j.due, e.id})
	}
	calibSink += c.heap[0].t
}

// runGuest runs c.instrs instructions of a 64-instruction random program
// on a 16-register machine with 1 MiB of memory.
func (c *calibrator) runGuest() {
	var regs [16]uint64
	mem := c.mem
	pc := 0
	for k := 0; k < c.instrs; k++ {
		in := c.prog[pc&63]
		a, b, d := in[1], in[2], in[3]
		switch in[0] {
		case 0:
			regs[d] = regs[a] + regs[b] + 1
		case 1:
			regs[d] = regs[a] ^ (regs[b] << 3)
		case 2:
			regs[d] = mem[(regs[a]>>3)&(1<<17-1)]
		case 3:
			mem[(regs[a]>>5)&(1<<17-1)] = regs[b] + uint64(k)
		case 4:
			if regs[a]&1 == 0 {
				pc += int(b)
			}
		case 5:
			regs[d] = regs[a]*0x9E3779B97F4A7C15 + uint64(pc)
		case 6:
			regs[d] = regs[a] >> (b & 31)
		default:
			regs[d] = regs[a] - regs[b]
		}
		pc++
	}
	calibSink += regs[0] + regs[7]
}

// sample runs both kernels once and returns the seconds they took.
func (c *calibrator) sample() float64 {
	t0 := time.Now()
	c.runEvents()
	c.runGuest()
	return time.Since(t0).Seconds()
}

// hostSpeed is how fast the host ran between two calibrations, as a
// multiple of the nominal host: a time measured between them, multiplied
// by it, is what the nominal host would have taken.
func hostSpeed(before, after float64) float64 {
	return calibNominalS / ((before + after) / 2)
}
