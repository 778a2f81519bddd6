package workload

import (
	"sync"
	"testing"
)

func rotKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(1000 + i*7)
	}
	return keys
}

// TestRotatingHotSetWindows checks that within each rotation window the hot
// block receives its apportioned mass exactly, and that the block actually
// rotates by the hot-set size from window to window.
func TestRotatingHotSetWindows(t *testing.T) {
	keys := rotKeys(64)
	const hot, window = 4, 512
	hotFrac := 0.9
	d, err := newRotatingHotSet(keys, hot, window, hotFrac, 42)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		// Window w's hot block is the hot keys starting at w·hot.
		hotSet := make(map[uint64]bool)
		for i := 0; i < hot; i++ {
			hotSet[keys[(w*hot+i)%len(keys)]] = true
		}
		hits := 0
		for i := w * window; i < (w+1)*window; i++ {
			if hotSet[d.at(uint64(i))] {
				hits++
			}
		}
		// Exact apportionment: the hot indices' counts are fixed per pass.
		// hotFrac plus the uniform residual the hot keys also receive.
		wantMin := int(float64(window) * hotFrac)
		if hits < wantMin {
			t.Errorf("window %d: hot block got %d/%d ops, want ≥ %d", w, hits, window, wantMin)
		}
	}
}

// TestRotatingHotSetNextMatchesAt checks that concurrent Next calls on a
// rotating scenario collectively consume exactly the positional schedule
// At describes.
func TestRotatingHotSetNextMatchesAt(t *testing.T) {
	const total = 1024
	d, err := NewScenario("rotating:2:128", rotKeys(32), 7)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]int)
	for i := 0; i < total; i++ {
		want[d.At(i).Key]++
	}
	got := make(map[uint64]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make(map[uint64]int)
			for i := 0; i < total/4; i++ {
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
	for k, c := range want {
		if got[k] != c {
			t.Errorf("key %d drawn %d times, want %d", k, got[k], c)
		}
	}
}

// TestRotatingHotSetValidation covers the constructor's error paths.
func TestRotatingHotSetValidation(t *testing.T) {
	keys := rotKeys(8)
	cases := []struct {
		name    string
		keys    []uint64
		hot     int
		window  int
		hotFrac float64
	}{
		{"no keys", nil, 1, 16, 0.5},
		{"hot too big", keys, 9, 16, 0.5},
		{"hot zero", keys, 0, 16, 0.5},
		{"window zero", keys, 2, 0, 0.5},
		{"frac one", keys, 2, 16, 1.0},
		{"frac zero", keys, 2, 16, 0},
	}
	for _, c := range cases {
		if _, err := newRotatingHotSet(c.keys, c.hot, c.window, c.hotFrac, 1); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
