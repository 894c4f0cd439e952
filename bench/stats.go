package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles for even n),
// 0 for an empty slice.
func median(vs []float64) float64 {
	_, q2, _ := quartiles(vs)
	return q2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vs, n=4) gives (the "exclusive" method), so the
// spreads printed here are the ones the acceptance driver computes. It
// needs at least two values; with fewer it returns the single value thrice.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 0 {
			return 0, 0, 0
		}
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrFrac is the interquartile distance as a share of the median, the
// spread measure every bound in BENCHMARK.json is compared against.
func iqrFrac(vs []float64) float64 {
	q1, _, q3 := quartiles(vs)
	med := median(vs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// nearestRank returns the q-quantile (0..1) of vs by nearest rank.
func nearestRank(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
