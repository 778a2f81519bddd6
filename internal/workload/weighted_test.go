package workload

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dist"
)

func TestWeightedDriveValidation(t *testing.T) {
	sup := []dist.Weighted{{Key: 1, P: 1}}
	if _, err := newWeightedDrive(sup, 0, 1); err == nil {
		t.Error("zero pass length accepted")
	}
	if _, err := newWeightedDrive(nil, 10, 1); err == nil {
		t.Error("empty support accepted")
	}
	if _, err := newWeightedDrive([]dist.Weighted{{Key: 1, P: -1}}, 10, 1); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestWeightedDriveApportionmentIsExact(t *testing.T) {
	// 0.5 / 0.3 / 0.2 over a pass of 10 has exact integer apportionment:
	// 5, 3, 2 — the schedule must realize it with no rounding drift.
	sup := []dist.Weighted{{Key: 1, P: 0.5}, {Key: 2, P: 0.3}, {Key: 3, P: 0.2}}
	d, err := newWeightedDrive(sup, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.schedule) != 10 {
		t.Fatalf("pass length %d, want 10", len(d.schedule))
	}
	counts := map[uint64]int{}
	for i := uint64(0); i < 10; i++ {
		counts[d.at(i)]++
	}
	want := map[uint64]int{1: 5, 2: 3, 3: 2}
	for k, c := range want {
		if counts[k] != c {
			t.Errorf("key %d scheduled %d times, want %d (counts %v)", k, counts[k], c, counts)
		}
	}
}

func TestWeightedDriveRealizedMatchesSchedule(t *testing.T) {
	// A support whose weights do NOT divide the pass length: realized
	// frequencies must equal the schedule's actual counts, sum to 1, and sit
	// within 1/passLen of the requested weights (largest-remainder bound).
	sup := []dist.Weighted{{Key: 10, P: 1}, {Key: 20, P: 1}, {Key: 30, P: 1}}
	const passLen = 100
	d, err := newWeightedDrive(sup, passLen, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	for i := uint64(0); i < passLen; i++ {
		counts[d.at(i)]++
	}
	total := 0.0
	for _, w := range d.realized {
		if got := float64(counts[w.Key]) / passLen; math.Abs(got-w.P) > 1e-12 {
			t.Errorf("key %d realized %v, schedule says %v", w.Key, w.P, got)
		}
		if math.Abs(w.P-1.0/3) > 1.0/passLen {
			t.Errorf("key %d realized %v, want within 1/%d of 1/3", w.Key, w.P, passLen)
		}
		total += w.P
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("realized mass %v, want 1", total)
	}
}

func TestWeightedDriveNextCyclesDeterministically(t *testing.T) {
	sup := []dist.Weighted{{Key: 1, P: 2}, {Key: 2, P: 1}}
	d, err := newWeightedScenario("test", sup, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]Op, d.PassLen())
	for i := range first {
		first[i] = d.Next()
	}
	// Second pass replays the same schedule.
	for i := range first {
		if got := d.Next(); got != first[i] {
			t.Fatalf("pass 2 position %d: got %v, want %v", i, got, first[i])
		}
	}
	// Two drives with the same seed agree.
	d2, _ := newWeightedScenario("test", sup, 9, 5)
	for i := range first {
		if d.At(i) != d2.At(i) {
			t.Fatal("same seed produced different schedules")
		}
	}
}

func TestWeightedDriveConcurrentNextRealizesPass(t *testing.T) {
	// Concurrent workers draining exactly W whole passes must collectively
	// realize the apportioned counts exactly — the property the telemetry
	// comparison depends on.
	sup := []dist.Weighted{{Key: 1, P: 0.6}, {Key: 2, P: 0.25}, {Key: 3, P: 0.15}}
	const passLen, passes, workers = 200, 8, 4
	d, err := newWeightedScenario("test", sup, passLen, 9)
	if err != nil {
		t.Fatal(err)
	}
	scheduled := map[uint64]int{}
	for i := 0; i < passLen; i++ {
		scheduled[d.At(i).Key]++
	}
	var mu sync.Mutex
	got := map[uint64]int{}
	var wg sync.WaitGroup
	per := passLen * passes / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := map[uint64]int{}
			for i := 0; i < per; i++ {
				local[d.Next().Key]++
			}
			mu.Lock()
			for k, c := range local {
				got[k] += c
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	for k, c := range scheduled {
		if got[k] != c*passes {
			t.Errorf("key %d drawn %d times across %d passes, want %d", k, got[k], passes, c*passes)
		}
	}
}
