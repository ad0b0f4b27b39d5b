package main

import (
	"math"
	"slices"
)

// percentile returns the exact p-th percentile (0 < p <= 100) of the
// ascending-sorted samples by the nearest-rank rule: the smallest
// sample with at least p % of all samples at or below it. Every sample
// is kept — there is no reservoir — so the answer is the distribution's
// own order statistic, not an estimate.
func percentile(sorted []int64, p float64) int64 {
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

// sortedCopy returns the samples in ascending order without disturbing
// the caller's slice (its order is the op order the trace refers to).
func sortedCopy(samples []int64) []int64 {
	out := slices.Clone(samples)
	slices.Sort(out)
	return out
}

// medianFloat returns the median of vs (mean of the middle pair for an
// even count); 0 for none.
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// meanInt returns the arithmetic mean of the samples; 0 for none.
func meanInt(samples []int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += float64(v)
	}
	return sum / float64(len(samples))
}
