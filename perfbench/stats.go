package main

import (
	"math"
	"sort"
)

// quantile is one percentile of a latency sample set, with the number of
// samples it rests on and how many lie strictly beyond it.
type quantile struct {
	P       float64 `json:"p"`
	ValueUs float64 `json:"value_us"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted:
// the smallest sample v such that at least ⌈p·N⌉ samples are ≤ v. It is
// exact — raw samples, no buckets.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// quantileOf reports percentile p of sorted (nanoseconds) in microseconds,
// with its sample count and the number of samples strictly greater.
func quantileOf(sorted []int64, p float64) quantile {
	v := percentile(sorted, p)
	beyond := len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return quantile{P: p, ValueUs: float64(v) / 1e3, Samples: len(sorted), Beyond: beyond}
}

// sortedCopy merges sample slices into one ascending slice.
func sortedCopy(parts ...[]int64) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the median of xs (mean of the middle pair for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs in the same unit.
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}
