// Package analyze replays a Tracer's event stream into the causal
// breakdowns behind the paper's figures: per-offload time attribution
// (initialization / compute / page faults / remote I/O / write-back —
// Figure 6's shape), critical paths and latency populations. It is a pure
// post-processor: everything it replays derives from the structured events
// the runtime already emits, so any captured trace — live session, chaos
// run, or a loaded file — analyzes identically. The radio-state energy
// table (Figure 7/8's shape) is rendered from the run's energy.Recorder,
// which integrates those segments itself.
package analyze

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simtime"
)

// Offload is the causal time breakdown of one completed offload. The five
// components partition Total exactly: Compute is defined as the remainder
// once the communication-shaped phases are subtracted, so it folds in the
// server's execution together with retry backoff and the return transfer
// the trace does not separate.
type Offload struct {
	Task  int64
	Name  string
	Start simtime.PS
	Total simtime.PS

	Init      simtime.PS // each attempt's offload request + prefetch transfer
	Compute   simtime.PS // remainder: server execution (incl. recovery waits)
	Fault     simtime.PS // copy-on-demand page-fault service
	IO        simtime.PS // remote I/O (r_printf et al.) round trips
	WriteBack simtime.PS // finalization write-back transfer

	Faults int // remote page faults served
}

// Summary aggregates a Breakdown run.
type Summary struct {
	Offloads  []Offload
	Fallbacks int // offloads abandoned to local re-execution (no breakdown)
}

// Total is the summed end-to-end latency of the completed offloads; on a
// fault-free trace it equals SessionStats.E2ELatency.
func (s *Summary) Total() simtime.PS {
	var t simtime.PS
	for _, o := range s.Offloads {
		t += o.Total
	}
	return t
}

// Breakdown replays the event stream and reconstructs each offload's
// components. The runtime's emission order within one offload attempt is
// fixed (prefetch, request message, server-side spans, write-back), an
// offload closes with its KOffload span, and sessions are strictly
// sequential, so a simple accumulator per open offload suffices. A crash
// retry re-sends the offload with a second prefetch: it continues the open
// offload, whose lost first attempt still counts.
func Breakdown(events []obs.Event) *Summary {
	sum := &Summary{}
	var cur Offload
	open := false
	sawInit := false
	for _, ev := range events {
		switch ev.Kind {
		case obs.KPrefetch:
			if !open {
				cur = Offload{}
				open = true
			}
			sawInit = false
		case obs.KMessage:
			// The first to_server message after a prefetch is the attempt's
			// offload request (initialization); later ones belong to faults
			// or remote I/O and are already covered by their spans.
			if open && !sawInit && ev.Name == "to_server" {
				cur.Init += ev.Dur
				sawInit = true
			}
		case obs.KPageFault:
			if open && ev.Dur > 0 {
				cur.Fault += ev.Dur
				cur.Faults++
			}
		case obs.KRemoteIO:
			if open {
				cur.IO += ev.Dur
			}
		case obs.KWriteBack:
			if open {
				cur.WriteBack += ev.Dur
			}
		case obs.KOffload:
			if open {
				cur.Task = ev.A0
				cur.Name = ev.Name
				cur.Start = ev.Time
				cur.Total = ev.Dur
				cur.Compute = ev.Dur - cur.Init - cur.Fault - cur.IO - cur.WriteBack
				sum.Offloads = append(sum.Offloads, cur)
				open = false
			}
		case obs.KFallback:
			if open {
				// The offload was abandoned; its time went to local
				// re-execution and has no remote breakdown.
				open = false
				sum.Fallbacks++
			}
		}
	}
	return sum
}

// TimeTable renders the per-offload breakdown in the Figure 6 shape: one
// row per offload, components in milliseconds plus the component share of
// the total.
func TimeTable(s *Summary) *report.Table {
	t := report.New("Per-offload time breakdown (Fig. 6 shape)",
		"task", "name", "total_ms", "init_ms", "compute_ms", "fault_ms", "io_ms", "writeback_ms", "faults")
	var tot Offload
	for _, o := range s.Offloads {
		t.Add(o.Task, o.Name, o.Total.Millis(), o.Init.Millis(), o.Compute.Millis(),
			o.Fault.Millis(), o.IO.Millis(), o.WriteBack.Millis(), o.Faults)
		tot.Total += o.Total
		tot.Init += o.Init
		tot.Compute += o.Compute
		tot.Fault += o.Fault
		tot.IO += o.IO
		tot.WriteBack += o.WriteBack
		tot.Faults += o.Faults
	}
	if n := len(s.Offloads); n > 1 {
		t.Add("-", "total", tot.Total.Millis(), tot.Init.Millis(), tot.Compute.Millis(),
			tot.Fault.Millis(), tot.IO.Millis(), tot.WriteBack.Millis(), tot.Faults)
	}
	if s.Fallbacks > 0 {
		t.Note("%d offload(s) fell back to local execution (not broken down)", s.Fallbacks)
	}
	if tot.Total > 0 {
		t.Note("components: init %.1f%%, compute %.1f%%, fault %.1f%%, io %.1f%%, writeback %.1f%%",
			100*float64(tot.Init)/float64(tot.Total),
			100*float64(tot.Compute)/float64(tot.Total),
			100*float64(tot.Fault)/float64(tot.Total),
			100*float64(tot.IO)/float64(tot.Total),
			100*float64(tot.WriteBack)/float64(tot.Total))
	}
	return t
}

// RadioTable renders the radio-state energy attribution in the Figure 7/8
// shape: one row per power state with its residency and energy under model,
// integrated from the recorder's segments (the ones its Tracer receives),
// per state in segment order.
func RadioTable(rec *energy.Recorder, model energy.PowerModel) *report.Table {
	var ps [energy.NumStates]simtime.PS
	var mj [energy.NumStates]float64
	for _, seg := range rec.Segments() {
		ps[seg.State] += seg.End - seg.Start
		mj[seg.State] += float64(model.MW[seg.State] * (seg.End - seg.Start).Seconds())
	}
	var total float64
	for _, e := range mj {
		total += e
	}
	t := report.New(fmt.Sprintf("Radio-state energy attribution (%s model, Fig. 7 shape)", model.Name),
		"state", "time_ms", "energy_mj", "share")
	for s := energy.State(0); s < energy.NumStates; s++ {
		if ps[s] == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * mj[s] / total
		}
		t.Add(s.String(), ps[s].Millis(), mj[s], fmt.Sprintf("%.1f%%", share))
	}
	t.Note("total %.2f mJ over traced radio segments", total)
	return t
}
