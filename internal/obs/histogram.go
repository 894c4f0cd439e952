package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
)

// Histogram is a log-bucketed latency histogram in the spirit of HDR
// histograms: values 0..15 land in exact buckets, larger values share an
// exponent with histSub sub-buckets, so relative quantile error is bounded
// by 1/histSub (~12.5%) at every magnitude while the whole structure stays
// a fixed array of atomics.
//
// Like the rest of the obs layer it is nil-safe and allocation-free on the
// hot path: Record on a nil *Histogram is a no-op, and an enabled Record
// touches only preallocated atomic counters, so latency-shaped
// instrumentation sites (page-fault service above all) cost nothing when
// metrics are disabled and almost nothing when enabled.
//
// Snapshots are deterministic: quantiles resolve by nearest rank to the
// bucket's inclusive upper bound (clamped to the observed maximum), so two
// identical simulated runs snapshot to identical numbers.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

const (
	// histSubBits fixes the sub-bucket resolution: 2^histSubBits linear
	// sub-buckets per power of two.
	histSubBits = 3
	histSub     = 1 << histSubBits
	// histBuckets covers the whole non-negative int64 range: 2*histSub
	// exact low buckets plus histSub per remaining exponent.
	histBuckets = (62-histSubBits+1)*histSub + 2*histSub
)

// NewHistogram creates an empty histogram (all counters zero).
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a non-negative value to its bucket. Values below
// 2*histSub get exact buckets; above that, the high histSubBits bits after
// the leading one select a sub-bucket within the value's exponent. The
// mapping is monotone, so cumulative bucket walks resolve quantiles.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < 2*histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1 - histSubBits
	return int(exp+1)<<histSubBits + int((u>>uint(exp))&(histSub-1))
}

// bucketUpper is the inclusive upper bound of bucket i (the value a
// quantile landing in the bucket reports).
func bucketUpper(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	exp := uint(i>>histSubBits) - 1
	sub := int64(i & (histSub - 1))
	return (histSub+sub+1)<<exp - 1
}

// Record adds one observation. Negative values clamp to zero (latencies
// are non-negative by construction; clamping keeps a buggy caller from
// corrupting the bucket index). Safe on nil and for concurrent use; never
// allocates.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of recorded observations; 0 on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistSnapshot is one deterministic point-in-time view of a histogram.
// Quantiles are nearest-rank bucket upper bounds clamped to Max.
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
}

// Mean returns Sum/Count (0 when empty).
func (s HistSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Snapshot captures the histogram's current state. Safe on nil (returns
// the zero snapshot).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	if s.Count == 0 {
		return s
	}
	s.P50 = h.quantile(0.50, s.Count, s.Max)
	s.P90 = h.quantile(0.90, s.Count, s.Max)
	s.P99 = h.quantile(0.99, s.Count, s.Max)
	return s
}

// SnapshotSorted returns what a Histogram holds after recording every
// value of an ascending slice, without the histogram: a caller that keeps
// its whole population sorted anyway (the fleet's latency list) need not
// also stream it through bucket counters. bucketIndex is monotone, so the
// bucket of the rank-th value is the bucket Histogram.quantile's cumulative
// walk stops in; negatives clamp to zero exactly as Record clamps them.
func SnapshotSorted[T ~int64](sorted []T) HistSnapshot {
	var s HistSnapshot
	n := len(sorted)
	if n == 0 {
		return s
	}
	s.Count = int64(n)
	for _, v := range sorted {
		s.Sum += max(int64(v), 0)
	}
	s.Max = max(int64(sorted[n-1]), 0)
	quantile := func(q float64) int64 {
		rank := max(int64(math.Ceil(q*float64(n))), 1)
		v := max(int64(sorted[rank-1]), 0)
		return min(bucketUpper(bucketIndex(v)), s.Max)
	}
	s.P50, s.P90, s.P99 = quantile(0.50), quantile(0.90), quantile(0.99)
	return s
}

// quantile resolves the q-quantile by nearest rank over the bucket
// cumulative counts.
func (h *Histogram) quantile(q float64, count, max int64) int64 {
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			ub := bucketUpper(i)
			if ub > max {
				ub = max
			}
			return ub
		}
	}
	return max
}

// ---- Metrics registry integration ----

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns a nil histogram (whose methods are no-ops), so record
// sites never branch on enablement. By convention names carry their unit
// as a suffix (e.g. lat.page_fault_ps).
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.hists == nil {
		m.hists = make(map[string]*Histogram)
	}
	h, ok := m.hists[name]
	if !ok {
		h = NewHistogram()
		m.hists[name] = h
	}
	return h
}

// HistogramNames returns the registered histogram names, sorted.
func (m *Metrics) HistogramNames() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	names := make([]string, 0, len(m.hists))
	for n := range m.hists {
		names = append(names, n)
	}
	m.mu.Unlock()
	sort.Strings(names)
	return names
}

// HistogramSnapshot snapshots the named histogram (zero snapshot if absent
// or the registry is nil).
func (m *Metrics) HistogramSnapshot(name string) HistSnapshot {
	if m == nil {
		return HistSnapshot{}
	}
	m.mu.Lock()
	h := m.hists[name]
	m.mu.Unlock()
	return h.Snapshot()
}

// HistogramSummary renders a deterministic table of every registered
// histogram with aligned quantile columns; empty string when none exist.
func (m *Metrics) HistogramSummary() string {
	names := m.HistogramNames()
	if len(names) == 0 {
		return ""
	}
	header := []string{"histogram", "count", "p50", "p90", "p99", "max", "mean"}
	rows := [][]string{header}
	for _, n := range names {
		s := m.HistogramSnapshot(n)
		rows = append(rows, []string{
			n,
			fmt.Sprintf("%d", s.Count),
			fmt.Sprintf("%d", s.P50),
			fmt.Sprintf("%d", s.P90),
			fmt.Sprintf("%d", s.P99),
			fmt.Sprintf("%d", s.Max),
			fmt.Sprintf("%d", s.Mean()),
		})
	}
	widths := make([]int, len(header))
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-*s", widths[0], r[0])
		for i := 1; i < len(r); i++ {
			fmt.Fprintf(&sb, "  %*s", widths[i], r[i])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
