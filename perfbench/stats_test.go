package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestPercentileMatchesSortedReference checks the nearest-rank percentile
// against its definition on a sorted copy: at least ⌈p·N⌉ samples are ≤ the
// answer and fewer than that are strictly below it.
func TestPercentileMatchesSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 99, 1000, 4097} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = r.Int63n(50) // many ties
		}
		sorted := sortedCopy(xs)
		if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
			t.Fatalf("n=%d: sortedCopy not ascending", n)
		}
		for _, p := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			v := percentile(sorted, p)
			rank := int(math.Ceil(p * float64(n)))
			le, lt := 0, 0
			for _, x := range xs {
				if x <= v {
					le++
				}
				if x < v {
					lt++
				}
			}
			if le < rank || lt >= rank {
				t.Errorf("n=%d p=%g: percentile %d has %d samples ≤ and %d < it, want ≥%d and <%d", n, p, v, le, lt, rank, rank)
			}
		}
	}
}

func TestPercentileExactValues(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(1000 - i) // 1..1000, shuffled order
	}
	sorted := sortedCopy(xs)
	for p, want := range map[float64]int64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("p%g = %d, want %d", 100*p, got, want)
		}
	}
	q := quantileOf(sorted, 0.99)
	if q.ValueUs != 0.99 || q.Samples != 1000 || q.Beyond != 10 {
		t.Errorf("quantileOf p99 = %+v, want 0.99µs over 1000 samples with 10 beyond", q)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

// TestAtSizedSpeed checks the reference scaling: a run whose reference
// matches its sized figures reports the server as measured, and a machine
// running the reference twice as fast halves the server's throughput and
// doubles its latencies and CPU time per op.
func TestAtSizedSpeed(t *testing.T) {
	srv := figures{OpsPerSec: 1000, ClosedP50: 10, ClosedP99: 30, OpenP50: 20, CPUUsPerOp: 5}
	sized := figures{OpsPerSec: 4000, ClosedP50: 4, ClosedP99: 8, OpenP50: 6, CPUUsPerOp: 2}
	if got := atSizedSpeed(srv, sized, sized); got != srv {
		t.Errorf("reference at its sized figures: %+v, want %+v", got, srv)
	}
	fast := figures{OpsPerSec: 8000, ClosedP50: 2, ClosedP99: 4, OpenP50: 3, CPUUsPerOp: 1}
	want := figures{OpsPerSec: 500, ClosedP50: 20, ClosedP99: 60, OpenP50: 40, CPUUsPerOp: 10}
	if got := atSizedSpeed(srv, fast, sized); got != want {
		t.Errorf("reference twice as fast: %+v, want %+v", got, want)
	}
}
