package obs

import (
	"math"
	"slices"
	"testing"
)

// TestBucketIndexMonotone walks value magnitudes and asserts the bucket
// mapping never decreases and every value lands at or below its bucket's
// inclusive upper bound.
func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range bucketProbe() {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, i, prev)
		}
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, i, histBuckets)
		}
		if ub := bucketUpper(i); v > ub {
			t.Fatalf("value %d above its bucket %d upper bound %d", v, i, ub)
		}
		prev = i
	}
}

// bucketProbe yields a dense-then-exponential sweep of values including
// every power-of-two boundary up to MaxInt64.
func bucketProbe() []int64 {
	var vs []int64
	for v := int64(0); v < 1024; v++ {
		vs = append(vs, v)
	}
	for shift := uint(10); shift < 63; shift++ {
		base := int64(1) << shift
		vs = append(vs, base-1, base, base+1, base+base/2)
	}
	vs = append(vs, math.MaxInt64-1, math.MaxInt64)
	return vs
}

func TestHistogramQuantiles(t *testing.T) {
	h := new(Histogram)
	// 1..100 exercise both exact low buckets and log buckets.
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 5050 || s.Max != 100 {
		t.Fatalf("snapshot count/sum/max = %d/%d/%d, want 100/5050/100", s.Count, s.Sum, s.Max)
	}
	// Log bucketing bounds relative quantile error by 1/histSub.
	check := func(name string, got, want int64) {
		t.Helper()
		if got < want || float64(got) > float64(want)*(1+1.0/histSub)+1 {
			t.Errorf("%s = %d, want within [%d, %.0f]", name, got, want, float64(want)*(1+1.0/histSub)+1)
		}
	}
	check("p50", s.P50, 50)
	check("p90", s.P90, 90)
	check("p99", s.P99, 99)
	if s.Mean() != 50 {
		t.Errorf("mean = %d, want 50", s.Mean())
	}

	// Determinism: a second identical histogram snapshots identically.
	h2 := new(Histogram)
	for v := int64(1); v <= 100; v++ {
		h2.Record(v)
	}
	if h2.Snapshot() != s {
		t.Errorf("identical recordings produced different snapshots: %+v vs %+v", h2.Snapshot(), s)
	}
}

// TestHistogramNilAndEdge: the zero value is an empty histogram, a negative
// value records as zero and the largest int64 lands in the last bucket.
func TestHistogramNilAndEdge(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s != (HistSnapshot{}) {
		t.Errorf("zero histogram Snapshot = %+v, want zero", s)
	}

	e := new(Histogram)
	e.Record(-5) // clamps to 0
	if s := e.Snapshot(); s.Count != 1 || s.Max != 0 || s.P99 != 0 {
		t.Errorf("negative record snapshot = %+v, want count=1 max=0", s)
	}

	big := new(Histogram)
	big.Record(math.MaxInt64)
	if s := big.Snapshot(); s.Max != math.MaxInt64 || s.P50 != math.MaxInt64 {
		t.Errorf("MaxInt64 snapshot = %+v", s)
	}
}

// TestHistogramZeroAlloc pins the hot path: Record never allocates.
func TestHistogramZeroAlloc(t *testing.T) {
	h := new(Histogram)
	v := int64(0)
	if n := testing.AllocsPerRun(200, func() { v += 7919; h.Record(v) }); n != 0 {
		t.Errorf("Histogram.Record allocates %.1f/op", n)
	}
}

// TestEventsWraparound is the Events() two-copy regression test: fill past
// capacity, then assert order and Dropped.
func TestEventsWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{A0: int64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i + 2); ev.A0 != want {
			t.Errorf("Events[%d].A0 = %d, want %d (oldest-first after wrap)", i, ev.A0, want)
		}
	}
	if d := tr.Dropped(); d != 2 {
		t.Errorf("Dropped = %d, want 2", d)
	}
}

// TestSnapshotSortedMatchesHistogram: SnapshotSorted must return what a
// Histogram snapshots to after recording the same population one value at
// a time — the property that lets the fleet derive Result.E2E from the
// latency list it sorts anyway.
func TestSnapshotSortedMatchesHistogram(t *testing.T) {
	lcg := func(n int, mask int64) []int64 {
		out := make([]int64, n)
		v := int64(1)
		for i := range out {
			v = (v*6364136223846793005 + 1442695040888963407) & math.MaxInt64
			out[i] = v & mask
		}
		return out
	}
	// Twelve orders of magnitude: each value keeps a different number of
	// its low bits.
	wide := lcg(5000, math.MaxInt64)
	for i := range wide {
		wide[i] >>= uint(23 + i%40)
	}
	for name, pop := range map[string][]int64{
		"empty":       nil,
		"one":         {123456789},
		"exact":       lcg(300, 15),
		"one bucket":  {1000, 1000, 1000, 1001},
		"wide":        wide,
		"full range":  lcg(5000, math.MaxInt64),
		"negative":    append(lcg(100, 1<<40-1), -5),
		"all clamped": {-3, -2, -1},
	} {
		h := new(Histogram)
		for _, v := range pop {
			h.Record(v)
		}
		sorted := slices.Clone(pop)
		slices.Sort(sorted)
		if got, want := SnapshotSorted(sorted), h.Snapshot(); got != want {
			t.Errorf("%s: SnapshotSorted %+v != recorded histogram %+v", name, got, want)
		}
	}
}
