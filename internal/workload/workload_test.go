package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func keysN(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i * 37)
	}
	return keys
}

func TestWorkingSetValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewWorkingSet(nil, 1, 0.5, 0.1, r); err == nil {
		t.Error("empty keys accepted")
	}
	if _, err := NewWorkingSet(keysN(10), 0, 0.5, 0.1, r); err == nil {
		t.Error("zero working set accepted")
	}
	if _, err := NewWorkingSet(keysN(10), 11, 0.5, 0.1, r); err == nil {
		t.Error("oversized working set accepted")
	}
	if _, err := NewWorkingSet(keysN(10), 5, 1.5, 0.1, r); err == nil {
		t.Error("locality > 1 accepted")
	}
}

func TestWorkingSetLocality(t *testing.T) {
	keys := keysN(1000)
	r := rng.New(2)
	w, err := NewWorkingSet(keys, 50, 0.9, 0, r) // no churn: fixed hot set
	if err != nil {
		t.Fatal(err)
	}
	hot := map[uint64]bool{}
	for _, i := range w.ws {
		hot[keys[i]] = true
	}
	const trials = 50000
	inHot := 0
	for i := 0; i < trials; i++ {
		if hot[w.Sample(r)] {
			inHot++
		}
	}
	got := float64(inHot) / trials
	// 0.9 locality + 0.1·(50/1000) background hits ≈ 0.905.
	if math.Abs(got-0.905) > 0.02 {
		t.Errorf("hot fraction %v, want ≈ 0.905", got)
	}
}

func TestWorkingSetChurnDrifts(t *testing.T) {
	keys := keysN(500)
	r := rng.New(3)
	w, err := NewWorkingSet(keys, 20, 0.9, 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	initial := append([]int(nil), w.ws...)
	for i := 0; i < 2000; i++ {
		w.Sample(r)
	}
	same := 0
	initialSet := map[int]bool{}
	for _, i := range initial {
		initialSet[i] = true
	}
	for _, i := range w.ws {
		if initialSet[i] {
			same++
		}
	}
	if same > len(initial)/2 {
		t.Errorf("working set did not drift: %d/%d members unchanged", same, len(initial))
	}
	// Invariants: ws has no duplicates and matches inWS.
	seen := map[int]bool{}
	for _, i := range w.ws {
		if seen[i] {
			t.Fatal("duplicate working-set member")
		}
		seen[i] = true
		if !w.inWS[i] {
			t.Fatal("inWS out of sync")
		}
	}
	if len(w.inWS) != len(w.ws) {
		t.Fatalf("inWS size %d != ws size %d", len(w.inWS), len(w.ws))
	}
}

func TestScanCycles(t *testing.T) {
	keys := keysN(5)
	s, err := NewScan(keys)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for round := 0; round < 3; round++ {
		for i := range keys {
			if got := s.Sample(r); got != keys[i] {
				t.Fatalf("round %d pos %d: got %d, want %d", round, i, got, keys[i])
			}
		}
	}
	if _, err := NewScan(nil); err == nil {
		t.Error("empty scan accepted")
	}
}

func TestNames(t *testing.T) {
	r := rng.New(6)
	w, _ := NewWorkingSet(keysN(10), 3, 0.8, 0.1, r)
	s, _ := NewScan(keysN(10))
	if w.Name() == "" || s.Name() == "" || w.Name() == s.Name() {
		t.Errorf("bad names: %q %q", w.Name(), s.Name())
	}
}
