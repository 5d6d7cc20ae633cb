package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it.  Nearest rank never invents a value between two
// samples, so p99 of 1000 samples is the 990th smallest — exactly ten
// samples lie beyond it.  Returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// samplesBeyond is the number of samples strictly above the p-th
// percentile's rank — the evidence behind a tail percentile.  A
// percentile with fewer than ten samples beyond it is reported with
// this count so the reader can discount it.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

// sortedCopy returns xs sorted ascending without disturbing the caller's
// slice (latency slices are kept in issue order for the trace).
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (mean of the middle pair for even
// lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// share returns num/den, 0 when den is 0 (a layer the workload never
// entered reports 0, not NaN).
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
