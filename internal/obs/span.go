package obs

import (
	"slices"
	"sort"

	"repro/internal/simtime"
)

// Span assembly: reconstructing each job's causal span tree from the flat
// event stream. Events carrying the same non-zero Job id belong to one
// logical offload request; spans nest by time containment (a page-fault
// service sits inside the offload span that caused it, a queue-wait
// segment inside the job's root span), instants hang off whatever span is
// open around them. The assembler is a pure post-processor over whatever
// the ring retained — it must tolerate wraparound-truncated streams, where
// a job's early events (often the enclosing root) were overwritten, so
// orphaned spans simply become additional roots and the tree is marked
// incomplete instead of anything panicking.

// Span is one node of a job's causal span tree: the event itself plus the
// spans and instants it encloses in time.
type Span struct {
	Event
	Children []*Span
}

// End is the span's end instant (Time itself for instants).
func (s *Span) End() simtime.PS { return s.Time + s.Dur }

// JobTrace is the assembled trace of one job id.
type JobTrace struct {
	Job int64
	// Roots are the top-level spans in time order. A fully retained job
	// has exactly one: its KJob (fleet) or KOffload (session) root span
	// enclosing everything else.
	Roots []*Span
	// Events counts every event attributed to the job, instants included.
	Events int
	// Complete reports that the trace has exactly one root *span* — the
	// job's enclosing interval survived and nothing widthful escaped it.
	// Instant roots outside the span are permitted: a gate verdict fires
	// moments before the offload interval it admits opens. False when the
	// ring's wraparound ate part of the job's life.
	Complete bool
}

// AssembleSpans groups the stream's job-attributed events (Job != 0) into
// per-job causal span trees, returned sorted by job id. It never panics on
// a truncated or wrapped stream: whatever subset of a job's events
// survived assembles into a forest, and Complete records whether one root
// covers it all.
func AssembleSpans(events []Event) []*JobTrace {
	byJob := make(map[int64][]Event)
	var ids []int64
	for _, ev := range events {
		if ev.Job == 0 {
			continue
		}
		if _, ok := byJob[ev.Job]; !ok {
			ids = append(ids, ev.Job)
		}
		byJob[ev.Job] = append(byJob[ev.Job], ev)
	}
	slices.Sort(ids)

	out := make([]*JobTrace, 0, len(ids))
	for _, id := range ids {
		out = append(out, assembleJob(id, byJob[id]))
	}
	return out
}

// assembleJob builds one job's tree by time containment. Events sort by
// start instant with wider spans first at ties, so a container always
// precedes its contents; a stack of open spans then assigns each event to
// the innermost span still enclosing it.
func assembleJob(id int64, evs []Event) *JobTrace {
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].Time != evs[b].Time {
			return evs[a].Time < evs[b].Time
		}
		return evs[a].Dur > evs[b].Dur
	})
	jt := &JobTrace{Job: id, Events: len(evs)}
	var stack []*Span
	var prev Event
	for i, ev := range evs {
		if i > 0 && ev == prev {
			// A job's cheap live summary and its flushed exemplar root are
			// value-identical by construction; collapse the duplicate so the
			// tree keeps a single root.
			jt.Events--
			continue
		}
		prev = ev
		s := &Span{Event: ev}
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if s.Time >= top.Time && s.End() <= top.End() {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			jt.Roots = append(jt.Roots, s)
		} else {
			top := stack[len(stack)-1]
			top.Children = append(top.Children, s)
		}
		if s.Dur > 0 {
			stack = append(stack, s)
		}
	}
	spanRoots := 0
	for _, r := range jt.Roots {
		if r.Dur > 0 {
			spanRoots++
		}
	}
	jt.Complete = spanRoots == 1
	return jt
}
