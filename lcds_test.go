package lcds

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/rng"
)

func testKeys(n int, seed uint64) []uint64 {
	r := rng.New(seed)
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := r.Uint64n(MaxKey)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func TestNewAndContains(t *testing.T) {
	keys := testKeys(1000, 1)
	d, err := New(keys, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1000 {
		t.Errorf("Len = %d", d.Len())
	}
	inSet := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		inSet[k] = true
		if !d.Contains(k) {
			t.Fatalf("lost key %d", k)
		}
	}
	r := rng.New(2)
	for i := 0; i < 2000; i++ {
		x := r.Uint64n(MaxKey)
		if !inSet[x] && d.Contains(x) {
			t.Fatalf("phantom key %d", x)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	keys := testKeys(10, 3)
	if _, err := New(keys, WithSpace(1)); err == nil {
		t.Error("WithSpace(1) accepted")
	}
	if _, err := New(keys, WithIndependence(2)); err == nil {
		t.Error("WithIndependence(2) accepted")
	}
	if _, err := New(keys, WithSlack(0.5)); err == nil {
		t.Error("WithSlack(0.5) accepted")
	}
	if _, err := New(keys, WithSpace(8), WithIndependence(4), WithSlack(6), WithSeed(9)); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestRejectsBadKeys(t *testing.T) {
	if _, err := New([]uint64{7, 7}); err == nil {
		t.Error("duplicates accepted")
	}
	if _, err := New([]uint64{MaxKey}); err == nil {
		t.Error("out-of-universe key accepted")
	}
}

func TestEmptyDictionary(t *testing.T) {
	d, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d", d.Len())
	}
	if d.Contains(12345) {
		t.Error("empty dictionary contains a key")
	}
	if _, err := d.ContentionSummary(nil); err == nil {
		t.Error("empty contention summary did not fail")
	}
}

func TestConcurrentQueries(t *testing.T) {
	keys := testKeys(2000, 4)
	d, err := New(keys)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g))
			for i := 0; i < 5000; i++ {
				k := keys[r.Intn(len(keys))]
				ok, err := d.Lookup(k)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					errs <- nil
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query failed: %v", err)
	}
}

func TestStats(t *testing.T) {
	keys := testKeys(1500, 5)
	d, err := New(keys, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.N != 1500 {
		t.Errorf("Stats.N = %d", s.N)
	}
	if s.Cells != d.SpaceCells() {
		t.Errorf("Stats.Cells = %d, SpaceCells = %d", s.Cells, d.SpaceCells())
	}
	if s.Buckets < 2*s.N {
		t.Errorf("buckets %d below 2n", s.Buckets)
	}
	if s.Rows < 10 || s.Rows > 20 {
		t.Errorf("rows = %d", s.Rows)
	}
	if s.HashTries < 1 {
		t.Errorf("hash tries = %d", s.HashTries)
	}
	if d.MaxProbes() < 10 || d.MaxProbes() > 20 {
		t.Errorf("MaxProbes = %d", d.MaxProbes())
	}
}

func TestContentionSummary(t *testing.T) {
	keys := testKeys(2048, 7)
	d, err := New(keys, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.ContentionSummary(keys)
	if err != nil {
		t.Fatal(err)
	}
	if c.RatioStep <= 0 || c.RatioStep > 64 {
		t.Errorf("RatioStep = %v, want small constant", c.RatioStep)
	}
	if c.RatioTotal < c.RatioStep {
		t.Errorf("RatioTotal %v < RatioStep %v", c.RatioTotal, c.RatioStep)
	}
	if c.Probes <= 0 || c.Probes > float64(d.MaxProbes()) {
		t.Errorf("Probes = %v", c.Probes)
	}
}

func TestSerializationFacadeRoundTrip(t *testing.T) {
	keys := testKeys(800, 40)
	d, err := New(keys, WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !loaded.Contains(k) {
			t.Fatalf("loaded dictionary lost key %d", k)
		}
	}
	if loaded.Len() != 800 {
		t.Errorf("Len = %d", loaded.Len())
	}
}

func TestExplainFacade(t *testing.T) {
	keys := testKeys(100, 50)
	d, err := New(keys, WithSeed(51))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ok, err := d.Explain(keys[0], &buf)
	if err != nil || !ok {
		t.Fatalf("Explain: ok=%v err=%v", ok, err)
	}
	if buf.Len() == 0 {
		t.Error("Explain wrote nothing")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	keys := testKeys(300, 9)
	a, err := New(keys, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(keys, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats() != b.Stats() {
		t.Errorf("same seed produced different stats")
	}
}
