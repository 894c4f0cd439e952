package obs

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// jobStream is a fully retained job: verdict instant, KJob root and a
// KJobSeg partition crossing three tracks, exactly what the fleet sampler
// flushes for a retained exemplar.
func jobStream(job int64) []Event {
	ms := simtime.Millisecond
	return []Event{
		{Time: 10 * ms, Kind: KGate, Track: TrackMobile, Name: "offload", Job: job},
		{Time: 10 * ms, Dur: 20 * ms, Kind: KJob, Track: TrackMobile, Name: "offload", Job: job, A0: 3, A1: 1},
		{Time: 10 * ms, Dur: 4 * ms, Kind: KJobSeg, Track: TrackLink, Name: "uplink", Job: job, A1: -1},
		{Time: 14 * ms, Dur: 2 * ms, Kind: KJobSeg, Track: TrackEdge, Name: "queue", Job: job, A1: 1},
		{Time: 16 * ms, Dur: 10 * ms, Kind: KJobSeg, Track: TrackEdge, Name: "run", Job: job, A1: 1},
		{Time: 26 * ms, Dur: 4 * ms, Kind: KJobSeg, Track: TrackLink, Name: "reply", Job: job, A1: -1},
	}
}

func TestAssembleSpansBuildsOneRootedTree(t *testing.T) {
	evs := jobStream(7)
	// The live KJob summary and the flushed exemplar root are
	// value-identical; the assembler must collapse the duplicate.
	evs = append(evs, evs[1])
	traces := AssembleSpans(evs)
	if len(traces) != 1 {
		t.Fatalf("got %d job traces, want 1", len(traces))
	}
	jt := traces[0]
	if jt.Job != 7 || !jt.Complete {
		t.Fatalf("job=%d complete=%v, want job 7 complete", jt.Job, jt.Complete)
	}
	if jt.Events != len(jobStream(7)) {
		t.Errorf("Events = %d, want %d (duplicate root not collapsed)", jt.Events, len(jobStream(7)))
	}
	if len(jt.Roots) != 1 || jt.Roots[0].Kind != KJob {
		t.Fatalf("roots = %d (first kind %v), want single KJob root", len(jt.Roots), jt.Roots[0].Kind)
	}
	root := jt.Roots[0]
	// The 4 segments hang directly off the root; the gate instant nests
	// inside the innermost span open at its timestamp (the uplink).
	if len(root.Children) != 4 {
		t.Fatalf("root has %d children, want the 4 segments", len(root.Children))
	}
	var segSum simtime.PS
	sawGate := false
	for _, seg := range root.Children {
		if seg.Kind == KJobSeg {
			segSum += seg.Dur
		}
		for _, c := range seg.Children {
			if c.Kind == KGate {
				sawGate = true
			}
		}
	}
	if !sawGate {
		t.Error("gate verdict instant missing from the tree")
	}
	if segSum != root.Dur {
		t.Errorf("segments sum to %v, root spans %v", segSum, root.Dur)
	}
}

// TestAssembleSpansWrappedRing drops the job's root through real ring
// wraparound: the orphaned segments must assemble into an incomplete
// forest, never a panic.
func TestAssembleSpansWrappedRing(t *testing.T) {
	full := jobStream(3)
	tr := NewTracer(len(full) - 2) // too small: the verdict and the root fall out
	for _, ev := range full {
		tr.Emit(ev)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	traces := AssembleSpans(tr.Events())
	if len(traces) != 1 {
		t.Fatalf("got %d job traces, want 1", len(traces))
	}
	jt := traces[0]
	if jt.Complete {
		t.Error("wrapped trace claims Complete with its root overwritten")
	}
	if len(jt.Roots) != 4 {
		t.Errorf("got %d orphan roots, want the 4 surviving segments", len(jt.Roots))
	}
}

// TestAssembleSpansTruncationNeverPanics is the property half of the
// wraparound coverage: any contiguous window and any random subset of a
// multi-job stream must assemble without panicking, and Complete may only
// be claimed when exactly one span root survived.
func TestAssembleSpansTruncationNeverPanics(t *testing.T) {
	var stream []Event
	for job := int64(1); job <= 4; job++ {
		stream = append(stream, jobStream(job)...)
	}
	check := func(evs []Event) {
		t.Helper()
		for _, jt := range AssembleSpans(evs) {
			spanRoots := 0
			for _, r := range jt.Roots {
				if r.Dur > 0 {
					spanRoots++
				}
			}
			if jt.Complete != (spanRoots == 1) {
				t.Fatalf("job %d: Complete=%v with %d span roots", jt.Job, jt.Complete, spanRoots)
			}
		}
	}
	for lo := 0; lo <= len(stream); lo++ {
		for hi := lo; hi <= len(stream); hi++ {
			check(stream[lo:hi])
		}
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var subset []Event
		for _, ev := range stream {
			if rng.Intn(2) == 0 {
				subset = append(subset, ev)
			}
		}
		check(subset)
	}
}

// TestChromeFlowEvents: the exporter must chain a multi-track job's spans
// with s/t/f flow records bound to the enclosing slices, and emit no
// arrows for single-track or single-span jobs.
func TestChromeFlowEvents(t *testing.T) {
	evs := jobStream(5)
	// A second job entirely on one track: no flow chain.
	evs = append(evs,
		Event{Time: 50, Dur: 10, Kind: KJob, Track: TrackMobile, Name: "decline", Job: 6},
		Event{Time: 50, Dur: 10, Kind: KJobSeg, Track: TrackMobile, Name: "local.exec", Job: 6},
	)
	// A third with a single span: nothing to link either.
	evs = append(evs, Event{Time: 70, Dur: 5, Kind: KJob, Track: TrackMobile, Name: "offload", Job: 8})
	// Task brackets never join flows even when job-attributed.
	evs = append(evs, Event{Time: 71, Kind: KTaskEnter, Track: TrackServer, Job: 8})

	flows := flowEvents(evs)
	if len(flows) != 5 {
		t.Fatalf("got %d flow records, want 5 (job 5's spans only)", len(flows))
	}
	for i, f := range flows {
		if f.ID != 5 || f.Cat != "flow" {
			t.Errorf("flow %d: id=%d cat=%q, want job 5's chain", i, f.ID, f.Cat)
		}
		want := "t"
		switch i {
		case 0:
			want = "s"
		case len(flows) - 1:
			want = "f"
		}
		if f.Ph != want {
			t.Errorf("flow %d: ph=%q, want %q", i, f.Ph, want)
		}
		if (f.Ph == "f") != (f.BP == "e") {
			t.Errorf("flow %d: bp=%q on ph=%q (only the finish binds enclosing)", i, f.BP, f.Ph)
		}
	}
	// The chain must actually change tracks at least once.
	tracks := map[int]bool{}
	for _, f := range flows {
		tracks[f.Tid] = true
	}
	if len(tracks) < 2 {
		t.Error("flow chain never leaves its first track")
	}
}

func TestSetKindsFilters(t *testing.T) {
	tr := NewTracer(8)
	tr.SetKinds(KGate, KJob)
	tr.Emit(Event{Kind: KGate})
	tr.Emit(Event{Kind: KPageFault})
	tr.Emit(Event{Kind: KJob})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d after filtered emits, want 2", tr.Len())
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped = %d; filtered events must not count as drops", tr.Dropped())
	}
	tr.SetKinds() // re-admit everything
	tr.Emit(Event{Kind: KPageFault})
	if tr.Len() != 3 {
		t.Errorf("Len = %d after re-admitting, want 3", tr.Len())
	}
	var nilTr *Tracer
	nilTr.SetKinds(KGate) // must not panic
}

// TestSetKindsFilteredPathZeroAlloc: muting a kind must keep the emitter
// allocation-free — the whole point of masking over ripping the tracer out.
func TestSetKindsFilteredPathZeroAlloc(t *testing.T) {
	tr := NewTracer(8)
	tr.SetKinds(KGate)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Time: 1, Kind: KPageFault, Track: TrackServer, Name: "remote"})
	})
	if allocs != 0 {
		t.Fatalf("filtered Emit allocates %.1f allocs/op, want 0", allocs)
	}
	if tr.Len() != 0 {
		t.Fatalf("filtered events reached the ring (%d retained)", tr.Len())
	}
}

// TestDroppedSurfaced: a truncated ring must announce itself — in its drop
// count and in the operator warning line — while a complete trace stays
// silent on both.
func TestDroppedSurfaced(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Time: simtime.PS(i), Kind: KMessage})
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	if w := tr.DropWarning(); !strings.Contains(w, "3") {
		t.Errorf("DropWarning = %q, want the drop count in it", w)
	}

	whole := NewTracer(8)
	whole.Emit(Event{Kind: KMessage})
	if whole.Dropped() != 0 {
		t.Error("complete trace counts drops")
	}
	if w := whole.DropWarning(); w != "" {
		t.Errorf("complete trace warns %q", w)
	}
}

// TestKindMetaExhaustive is the taxonomy lint: every Kind must carry a
// kindMeta entry, and names must be unique so exporters and grep agree on
// what an event is called.
func TestKindMetaExhaustive(t *testing.T) {
	seen := make(map[string]Kind)
	for k := Kind(0); k < numKinds; k++ {
		name := kindMeta[k].name
		if name == "" {
			t.Errorf("Kind %d has no kindMeta entry", k)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kindMeta name %q reused by kinds %d and %d", name, prev, k)
		}
		seen[name] = k
	}
}
