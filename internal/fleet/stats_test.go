package fleet

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/simtime"
)

// TestFinishSortOrderIndependent: the latency aggregates are functions of
// the sorted population alone, and ascending order of integers is unique
// — so sorting with slices.Sort gives, bit for bit, what the reflective
// sort.Slice it replaced gave, duplicates and arrival order
// notwithstanding. GeomeanMs sums floats in population order, which is
// why the bits (not a tolerance) are compared.
func TestFinishSortOrderIndependent(t *testing.T) {
	r := entityStream(18, 4)
	pop := make([]simtime.PS, 5000)
	for i := range pop {
		// A narrow range: most values occur several times.
		pop[i] = simtime.PS(1+r.intn(700)) * simtime.Millisecond / 7
	}
	ref := append([]simtime.PS(nil), pop...)
	sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })

	var got, want Result
	got.finish(pop, nil, simtime.Second)
	want.P50Ms = percentile(ref, 0.50).Millis()
	want.P99Ms = percentile(ref, 0.99).Millis()
	var sum simtime.PS
	logSum := 0.0
	for _, l := range ref {
		sum += l
		logSum += math.Log(l.Millis())
	}
	want.MeanMs = (sum / simtime.PS(len(ref))).Millis()
	want.GeomeanMs = math.Exp(logSum / float64(len(ref)))
	for _, f := range []struct {
		name      string
		got, want float64
	}{{"P50Ms", got.P50Ms, want.P50Ms}, {"P99Ms", got.P99Ms, want.P99Ms},
		{"MeanMs", got.MeanMs, want.MeanMs}, {"GeomeanMs", got.GeomeanMs, want.GeomeanMs}} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s = %v, the sort.Slice population gives %v", f.name, f.got, f.want)
		}
	}
}

// TestSortLatenciesMatchesSlicesSort: the in-place radix sort must leave
// exactly what slices.Sort leaves, at every size class it switches
// algorithm on and for every population shape that stresses a radix pass.
func TestSortLatenciesMatchesSlicesSort(t *testing.T) {
	r := entityStream(21, 1)
	shapes := map[string]func(i, n int) simtime.PS{
		"0-5s":      func(int, int) simtime.PS { return simtime.PS(r.next() % uint64(5*simtime.Second)) },
		"under 256": func(int, int) simtime.PS { return simtime.PS(r.intn(256)) },
		"all equal": func(int, int) simtime.PS { return 1234567 * simtime.Microsecond },
		"sorted":    func(i, _ int) simtime.PS { return simtime.PS(i) * 997 * simtime.Microsecond },
		"reversed":  func(i, n int) simtime.PS { return simtime.PS(n-i) * 997 * simtime.Microsecond },
		// Most entries share their upper bytes: deep buckets, many duplicates.
		"narrow": func(int, int) simtime.PS { return 3*simtime.Second + simtime.PS(r.intn(700)) },
		"one negative": func(i, _ int) simtime.PS {
			if i == 0 {
				return -7
			}
			return simtime.PS(r.next() % uint64(5*simtime.Second))
		},
	}
	sizes := []int{0, 1, 2, radixInsertion - 1, radixInsertion, radixInsertion + 1,
		radixMinLen - 1, radixMinLen, radixMinLen + 1, 100_000}
	for name, gen := range shapes {
		ns := sizes
		if name == "0-5s" && !testing.Short() {
			ns = append(slices.Clone(sizes), 1_000_000) // the overload cell's population
		}
		for _, n := range ns {
			got := make([]simtime.PS, n)
			for i := range got {
				got[i] = gen(i, n)
			}
			want := slices.Clone(got)
			slices.Sort(want)
			sortLatencies(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s, %d entries: sortLatencies differs from slices.Sort", name, n)
			}
		}
	}
}
