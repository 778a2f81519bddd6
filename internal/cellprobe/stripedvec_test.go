package cellprobe

import (
	"sync"
	"testing"
)

func TestStripedVectorBasic(t *testing.T) {
	v := NewStripedVector(5, 4)
	if v.Len() != 5 {
		t.Fatalf("Len = %d, want 5", v.Len())
	}
	if v.Stripes() != 4 {
		t.Fatalf("Stripes = %d, want 4", v.Stripes())
	}
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			v.Add(i)
		}
	}
	for i := 0; i < 5; i++ {
		if got := v.Sum(i); got != uint64(i+1) {
			t.Fatalf("Sum(%d) = %d, want %d", i, got, i+1)
		}
	}
	sums := v.Sums()
	var dst [5]uint64
	if grand := v.SumInto(dst[:]); grand != 1+2+3+4+5 {
		t.Fatalf("grand total = %d, want 15", grand)
	}
	for i := range sums {
		if sums[i] != dst[i] {
			t.Fatalf("Sums()[%d] = %d, SumInto dst[%d] = %d", i, sums[i], i, dst[i])
		}
	}
}

func TestStripedVectorAddStripe(t *testing.T) {
	v := NewStripedVector(3, 2)
	// Explicit stripe identities, including out-of-range ones that must be
	// masked into [0, Stripes).
	v.AddStripeN(0, 1, 1)
	v.AddStripeN(1, 1, 1)
	v.AddStripeN(7, 1, 1) // masked to stripe 1
	if got := v.Sum(1); got != 3 {
		t.Fatalf("Sum(1) = %d, want 3", got)
	}
	if got := v.Sum(0) + v.Sum(2); got != 0 {
		t.Fatalf("untouched counters hold %d", got)
	}
}

func TestStripedVectorRoundsStripes(t *testing.T) {
	v := NewStripedVector(1, 3)
	if v.Stripes() != 4 {
		t.Fatalf("stripes rounded to %d, want 4", v.Stripes())
	}
	if d := NewStripedVector(1, 0).Stripes(); d != DefaultVectorStripes() {
		t.Fatalf("default stripes = %d, want %d", d, DefaultVectorStripes())
	}
}

// TestStripedVectorConcurrent checks no increments are lost across
// concurrent adders (each atomic add lands on some stripe; the cross-stripe
// sum must be exact once the adders join).
func TestStripedVectorConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
		counters   = 17
	)
	v := NewStripedVector(counters, 0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v.Add((g + i) % counters)
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < counters; i++ {
		total += v.Sum(i)
	}
	if want := uint64(goroutines * perG); total != want {
		t.Fatalf("lost increments: total %d, want %d", total, want)
	}
}

// TestProbeToTally: a tallied probe lands at its step, clamped into the
// tally's last slot, while the recorder still sees it; a nil tally behaves
// as Probe.
func TestProbeToTally(t *testing.T) {
	tab := New(2, 4)
	rec := NewRecorder(tab.Size())
	tab.Attach(rec)
	tally := make([]uint64, 3)
	tab.ProbeTo(0, 0, 1, tally)
	tab.ProbeTo(2, 1, 2, tally)
	tab.ProbeTo(7, 1, 3, tally)
	if tally[0] != 1 || tally[1] != 0 || tally[2] != 2 {
		t.Fatalf("tallied probes: tally %v, want [1 0 2]", tally)
	}
	if rec.probes != 3 || rec.Total[6] != 1 {
		t.Fatalf("recorder saw %d probes (cell 6: %d), want 3 (1)", rec.probes, rec.Total[6])
	}
	if c := tab.ProbeTo(1, 0, 0, nil); c != tab.At(0, 0) || rec.probes != 4 {
		t.Fatalf("untallied probe: read %+v, recorder %d; want %+v and 4", c, rec.probes, tab.At(0, 0))
	}
}
