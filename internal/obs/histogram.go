package obs

import (
	"math"
	"math/bits"
)

// Histogram is a log-bucketed latency histogram in the spirit of HDR
// histograms: values 0..15 land in exact buckets, larger values share an
// exponent with histSub sub-buckets, so relative quantile error is bounded
// by 1/histSub (~12.5%) at every magnitude while the whole structure stays
// a fixed array of counters.
//
// The zero value is an empty histogram. It is single-threaded: its writers
// are the fleet machine's queue-wait recorders, which run on the engine's
// one goroutine, so a Record is plain increments and never allocates.
//
// Snapshots are deterministic: quantiles resolve by nearest rank to the
// bucket's inclusive upper bound (clamped to the observed maximum), so two
// identical simulated runs snapshot to identical numbers.
type Histogram struct {
	count   int64
	sum     int64
	max     int64
	buckets [histBuckets]int64
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
// corrupting the bucket index).
func (h *Histogram) Record(v int64) {
	v = max(v, 0)
	h.count++
	h.sum += v
	h.max = max(h.max, v)
	h.buckets[bucketIndex(v)]++
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

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count, Sum: h.sum, Max: h.max}
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
		c := h.buckets[i]
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
