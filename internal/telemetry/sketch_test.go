package telemetry

import (
	"sync"
	"testing"
)

// TestSketchPackRoundTrip checks the (step, cell) word packing.
func TestSketchPackRoundTrip(t *testing.T) {
	cases := [][2]int{{0, 0}, {1, 1}, {64, 12345}, {7, 1<<40 - 1}}
	for _, c := range cases {
		step, cell := unpackStepCell(packStepCell(c[0], c[1]))
		if step != c[0] || cell != c[1] {
			t.Fatalf("pack(%d,%d) round-tripped to (%d,%d)", c[0], c[1], step, cell)
		}
	}
}

// TestSketchHottestCell drives a skewed probe stream through the sketch and
// checks the hottest cell per step is identified.
func TestSketchHottestCell(t *testing.T) {
	s := NewStepCellSketch(128, 1)
	h := &handle{stripe: 0, rng: 12345}
	// Step 0: cell 7 gets 90% of probes; step 1: cell 3 gets all of them.
	for i := 0; i < 10000; i++ {
		if i%10 == 0 {
			s.offer(h, 0, 1)
		} else {
			s.offer(h, 0, 7)
		}
		s.offer(h, 1, 3)
	}
	if got := s.Offers(); got != 20000 {
		t.Fatalf("Offers() = %d, want 20000", got)
	}
	views := s.Snapshot(2)
	if len(views) != 2 {
		t.Fatalf("snapshot has %d steps, want 2", len(views))
	}
	if views[0].Step != 0 || views[1].Step != 1 {
		t.Fatalf("steps out of order: %d, %d", views[0].Step, views[1].Step)
	}
	if views[0].Cells[0].Cell != 7 {
		t.Fatalf("step 0 hottest cell %d, want 7", views[0].Cells[0].Cell)
	}
	if share := views[0].Cells[0].Share; share < 0.75 || share > 1.0 {
		t.Fatalf("step 0 hot share %v, want ≈0.9", share)
	}
	if views[1].Cells[0].Cell != 3 || views[1].Cells[0].Share != 1.0 {
		t.Fatalf("step 1 row %+v, want cell 3 at share 1", views[1].Cells[0])
	}
}

// TestSketchConcurrent hammers the sketch from many goroutines (the -race
// battery for the reservoir's atomic slots) and checks the snapshot stays
// well-formed.
func TestSketchConcurrent(t *testing.T) {
	s := NewStepCellSketch(64, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := &handle{stripe: uint64(g), rng: uint64(g) * 977}
			for i := 0; i < 5000; i++ {
				s.offer(h, g%3, i%17)
			}
		}(g)
	}
	wg.Wait()
	if got := s.Offers(); got != 40000 {
		t.Fatalf("Offers() = %d, want 40000", got)
	}
	for _, v := range s.Snapshot(5) {
		if v.Step < 0 || v.Step > 2 {
			t.Fatalf("impossible step %d in snapshot", v.Step)
		}
		if len(v.Cells) > 5 {
			t.Fatalf("step %d has %d cells, want ≤ 5", v.Step, len(v.Cells))
		}
		var sum float64
		for _, c := range v.Cells {
			if c.Cell < 0 || c.Cell >= 17 {
				t.Fatalf("impossible cell %d", c.Cell)
			}
			sum += c.Share
		}
		if sum > 1.0001 {
			t.Fatalf("step %d shares sum to %v > 1", v.Step, sum)
		}
	}
}

// TestTelemetrySketchIntegration checks the sketch rides the telemetry
// fold: folded probes appear in Snapshot().StepCells.
func TestTelemetrySketchIntegration(t *testing.T) {
	tel := New(Config{}, 100, 10)
	for i := 0; i < 1000; i++ {
		probe(tel, 0, 42)
		probe(tel, 1, i%100)
	}
	s := tel.Snapshot()
	if len(s.StepCells) == 0 {
		t.Fatal("snapshot has no step-cell table")
	}
	if s.StepCells[0].Step != 0 || s.StepCells[0].Cells[0].Cell != 42 {
		t.Fatalf("step 0 hottest %+v, want cell 42", s.StepCells[0])
	}
	// Cell-agnostic telemetry has no sketch.
	dyn := New(Config{}, 0, 10)
	probe(dyn, 0, 1)
	if got := dyn.Snapshot().StepCells; got != nil {
		t.Fatalf("cell-agnostic snapshot has step cells: %+v", got)
	}
}
