package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Chrome trace_event exporter. The output loads directly into
// chrome://tracing or https://ui.perfetto.dev: one process ("offload
// session") with one thread per Track, spans for events with a duration,
// instants for the rest, and B/E pairs for task enter/exit.
//
// Timestamps are microseconds of *simulated* time, so the rendered
// timeline is the paper's timeline, not wall clock.

// chromeEvent is one trace_event record. Field order is fixed by the
// struct, and args maps marshal with sorted keys, so the exporter's output
// is deterministic (the golden tests rely on it).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePid = 1

// counterName maps each latency-shaped kind to the Perfetto counter track
// its duration is plotted on (ph "C" samples, microseconds). Kinds without
// an entry export no counter.
var counterName = [numKinds]string{
	KPageFault: "lat.page_fault",
	KWriteBack: "lat.write_back",
	KRemoteIO:  "lat.remote_io",
	KOffload:   "lat.offload",
	KQueue:     "lat.queue_wait",
}

// counterValue extracts the latency a counter sample plots: the span
// duration, except for KQueue instants, which carry their wait in A2.
func counterValue(ev Event) float64 {
	if ev.Kind == KQueue {
		return usec(ev.A2)
	}
	return usec(int64(ev.Dur))
}

// usec converts simulated picoseconds to trace microseconds.
func usec(ps int64) float64 { return float64(ps) / 1e6 }

// chromeName picks the display name for an event.
func chromeName(ev Event) string {
	switch ev.Kind {
	case KRadio:
		if ev.Name != "" {
			return ev.Name // the power state is the interesting label
		}
	case KRemoteIO:
		if ev.Name != "" {
			return "io:" + ev.Name
		}
	case KTaskEnter:
		return fmt.Sprintf("task %d", ev.A0)
	case KTaskExit:
		// E records close the matching B by nesting; the name is ignored.
		return "task"
	}
	return kindMeta[ev.Kind].name
}

// chromeArgs collects the kind-specific argument map.
func chromeArgs(ev Event) map[string]any {
	args := make(map[string]any)
	vals := [4]int64{ev.A0, ev.A1, ev.A2, ev.A3}
	for i, label := range kindMeta[ev.Kind].args {
		if label != "" {
			args[label] = vals[i]
		}
	}
	if ev.Name != "" && ev.Kind != KRadio && ev.Kind != KRemoteIO {
		args["detail"] = ev.Name
	}
	if ev.Job != 0 {
		args["job_id"] = ev.Job
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// WriteChrome exports the retained events as Chrome trace_event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	events := t.Events()
	out := chromeTrace{DisplayTimeUnit: "ms"}

	// Metadata: process and per-track thread names, ordered as declared.
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Cat: "__metadata", Ph: "M", Pid: chromePid,
		Args: map[string]any{"name": "offload session"},
	})
	for tr := Track(0); tr < numTracks; tr++ {
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{
				Name: "thread_name", Cat: "__metadata", Ph: "M",
				Pid: chromePid, Tid: int(tr) + 1,
				Args: map[string]any{"name": tr.String()},
			},
			chromeEvent{
				Name: "thread_sort_index", Cat: "__metadata", Ph: "M",
				Pid: chromePid, Tid: int(tr) + 1,
				Args: map[string]any{"sort_index": int(tr)},
			})
	}

	for _, ev := range events {
		ce := chromeEvent{
			Name: chromeName(ev),
			Cat:  "offload",
			Ts:   usec(int64(ev.Time)),
			Pid:  chromePid,
			Tid:  int(ev.Track) + 1,
			Args: chromeArgs(ev),
		}
		switch {
		case ev.Kind == KTaskEnter:
			ce.Ph = "B"
		case ev.Kind == KTaskExit:
			ce.Ph = "E"
		case ev.Dur > 0:
			ce.Ph = "X"
			ce.Dur = usec(int64(ev.Dur))
		default:
			ce.Ph = "i"
			ce.S = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
		if cn := counterName[ev.Kind]; cn != "" {
			// Shadow the span with a counter sample so Perfetto plots the
			// latency series (p99 spikes are visible at a glance) next to
			// the timeline.
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: cn, Cat: "offload", Ph: "C",
				Ts: usec(int64(ev.Time)), Pid: chromePid, Tid: int(ev.Track) + 1,
				Args: map[string]any{"us": counterValue(ev)},
			})
		}
	}

	out.TraceEvents = append(out.TraceEvents, flowEvents(events)...)

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// flowEvents links each job's spans across tracks with Chrome flow
// records (ph "s"/"t"/"f", one chain per job id): the arrows Perfetto
// draws from a job's client-side root through its edge/cloud segments.
// Flows bind to complete (X) spans, so only span events participate; a
// job entirely on one track needs no arrow. Jobs are emitted in id order
// and spans in stream order, keeping the export deterministic.
func flowEvents(events []Event) []chromeEvent {
	spans := make(map[int64][]Event)
	var ids []int64
	for _, ev := range events {
		if ev.Job == 0 || ev.Dur <= 0 || ev.Kind == KTaskEnter || ev.Kind == KTaskExit {
			continue
		}
		if _, ok := spans[ev.Job]; !ok {
			ids = append(ids, ev.Job)
		}
		spans[ev.Job] = append(spans[ev.Job], ev)
	}
	slices.Sort(ids)

	var out []chromeEvent
	for _, id := range ids {
		chain := spans[id]
		tracks := make(map[Track]bool)
		for _, ev := range chain {
			tracks[ev.Track] = true
		}
		if len(chain) < 2 || len(tracks) < 2 {
			continue
		}
		for i, ev := range chain {
			ph := "t"
			switch i {
			case 0:
				ph = "s"
			case len(chain) - 1:
				ph = "f"
			}
			ce := chromeEvent{
				Name: "job", Cat: "flow", Ph: ph, ID: id,
				Ts:  usec(int64(ev.Time)),
				Pid: chromePid, Tid: int(ev.Track) + 1,
			}
			if ph == "f" {
				ce.BP = "e" // bind to the enclosing slice, not the next one
			}
			out = append(out, ce)
		}
	}
	return out
}
