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
	v.AddStripe(0, 1)
	v.AddStripe(1, 1)
	v.AddStripe(7, 1) // masked to stripe 1
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

// TestTableSink checks the ProbeSink hook fires for direct and forwarded
// probes with the forwarded coordinates.
func TestTableSink(t *testing.T) {
	type probe struct{ step, cell int }
	var got []probe
	sinkFn := sinkFunc(func(step, cell int) { got = append(got, probe{step, cell}) })

	tab := New(2, 4)
	tab.SetSink(sinkFn)
	tab.Probe(0, 1, 2)
	tab.ProbeIndex(3, 5)
	if len(got) != 2 || got[0] != (probe{0, 6}) || got[1] != (probe{3, 5}) {
		t.Fatalf("direct probes recorded %v", got)
	}
	if tab.Sink() == nil {
		t.Fatal("Sink() lost the installed sink")
	}

	// Forwarded probes: child probes must reach the parent's sink at
	// translated coordinates.
	got = nil
	parent := New(1, 100)
	parent.SetSink(sinkFn)
	child := New(1, 4)
	child.ForwardTo(parent, 10, 5)
	child.Probe(1, 0, 3)
	if len(got) != 1 || got[0] != (probe{6, 13}) {
		t.Fatalf("forwarded probe recorded %v, want {6 13}", got)
	}
}

// TestProbeToTally: a tallied probe skips the sink and lands at its step,
// clamped into the tally's last slot, while the recorder still sees it; a
// nil tally behaves as Probe.
func TestProbeToTally(t *testing.T) {
	sunk := 0
	tab := New(2, 4)
	tab.SetSink(sinkFunc(func(step, cell int) { sunk++ }))
	rec := NewRecorder(tab.Size())
	tab.Attach(rec)
	tally := make([]uint64, 3)
	tab.ProbeTo(0, 0, 1, tally)
	tab.ProbeTo(2, 1, 2, tally)
	tab.ProbeTo(7, 1, 3, tally)
	if sunk != 0 || tally[0] != 1 || tally[1] != 0 || tally[2] != 2 {
		t.Fatalf("tallied probes: sink saw %d, tally %v; want 0 and [1 0 2]", sunk, tally)
	}
	if rec.probes != 3 || rec.Total[6] != 1 {
		t.Fatalf("recorder saw %d probes (cell 6: %d), want 3 (1)", rec.probes, rec.Total[6])
	}
	tab.ProbeTo(1, 0, 0, nil)
	if sunk != 1 || rec.probes != 4 {
		t.Fatalf("untallied probe: sink saw %d, recorder %d; want 1 and 4", sunk, rec.probes)
	}
}

type sinkFunc func(step, cell int)

func (f sinkFunc) ProbeObserved(step, cell int) { f(step, cell) }
