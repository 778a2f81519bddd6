package telemetry

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/contention"
)

func TestSnapshotCounts(t *testing.T) {
	tel := New(Config{TopK: 3}, 10, 100)
	// 4 queries: cell 7 probed at step 0 every time, cell 3 at step 1
	// half the time.
	for q := 0; q < 4; q++ {
		tel.ProbeObserved(0, 7)
		if q%2 == 0 {
			tel.ProbeObserved(1, 3)
		}
		tel.ObserveQuery(q%2 == 0, false, 100)
	}
	s := tel.Snapshot()
	if s.Queries != 4 || s.Hits != 2 || s.Misses != 2 || s.Errors != 0 {
		t.Fatalf("counts: %+v", s)
	}
	if s.Probes != 6 {
		t.Fatalf("Probes = %d, want 6", s.Probes)
	}
	if got := s.ProbesPerQuery; got != 1.5 {
		t.Fatalf("ProbesPerQuery = %v, want 1.5", got)
	}
	if s.MaxPhi != 1.0 || s.MaxPhiCell != 7 {
		t.Fatalf("MaxPhi = %v at cell %d, want 1.0 at 7", s.MaxPhi, s.MaxPhiCell)
	}
	if s.MaxPhiN != 100.0 {
		t.Fatalf("MaxPhiN = %v, want 100", s.MaxPhiN)
	}
	if len(s.StepMass) != 2 || s.StepMass[0] != 1.0 || s.StepMass[1] != 0.5 {
		t.Fatalf("StepMass = %v, want [1 0.5]", s.StepMass)
	}
	if len(s.TopCells) != 2 || s.TopCells[0].Cell != 7 || s.TopCells[1].Cell != 3 {
		t.Fatalf("TopCells = %+v", s.TopCells)
	}
}

func TestStepCapOverflow(t *testing.T) {
	tel := New(Config{StepCap: 4}, 0, 1)
	tel.ProbeObserved(3, 0)
	tel.ProbeObserved(4, 0)
	tel.ProbeObserved(1000, 0)
	tel.ObserveQuery(true, false, 1)
	s := tel.Snapshot()
	if s.Probes != 3 {
		t.Fatalf("Probes = %d, want 3", s.Probes)
	}
	// Steps ≥ StepCap aggregate into the overflow slot.
	if len(s.StepMass) != 5 || s.StepMass[4] != 2.0 || s.StepMass[3] != 1.0 {
		t.Fatalf("StepMass = %v", s.StepMass)
	}
}

// TestFlushTally: a tally flushes to exactly what per-probe reporting
// counts, and only the configurations that keep nothing but per-step totals
// of every probe offer one.
func TestFlushTally(t *testing.T) {
	per, tallied := New(Config{StepCap: 4}, 0, 1), New(Config{StepCap: 4}, 0, 1)
	tally := make([]uint64, tallied.TallyLen())
	if len(tally) != 5 {
		t.Fatalf("TallyLen = %d, want StepCap+1 = 5", len(tally))
	}
	for _, step := range []int{0, 3, 3, 4, 1000} {
		per.ProbeObserved(step, 0)
		tally[min(step, len(tally)-1)]++
	}
	tallied.FlushTally(tally)
	tallied.FlushTally(tally) // zeroed by the first flush: adds nothing
	for _, tel := range []*Telemetry{per, tallied} {
		tel.ObserveQuery(true, false, 1)
	}
	a, b := per.Snapshot(), tallied.Snapshot()
	if a.Probes != 5 || b.Probes != a.Probes || !slices.Equal(b.StepMass, a.StepMass) {
		t.Fatalf("flushed %d probes %v, per-probe %d %v", b.Probes, b.StepMass, a.Probes, a.StepMass)
	}
	for name, tel := range map[string]*Telemetry{
		"sampled":  New(Config{Sample: 8}, 0, 1),
		"adaptive": New(Config{Adaptive: &AdaptiveConfig{TargetProbesPerSec: 1e6}}, 0, 1),
		"per-cell": New(Config{}, 16, 1),
	} {
		if n := tel.TallyLen(); n != 0 {
			t.Errorf("%s telemetry TallyLen = %d, want 0", name, n)
		}
	}
}

func TestSamplingScalesUnbiased(t *testing.T) {
	tel := New(Config{Sample: 8}, 4, 16)
	if tel.Sample() != 8 {
		t.Fatalf("Sample = %d, want 8", tel.Sample())
	}
	const probes = 200000
	for i := 0; i < probes; i++ {
		tel.ProbeObserved(0, i%4)
	}
	tel.ObserveQuery(true, false, 1)
	s := tel.Snapshot()
	// Bernoulli(1/8) over 200k probes: the scaled estimate concentrates
	// within a few percent of the truth.
	if ratio := float64(s.Probes) / probes; math.Abs(ratio-1) > 0.10 {
		t.Fatalf("scaled probe estimate %d off by %.1f%% from %d", s.Probes, 100*(ratio-1), probes)
	}
	// Sampling to the nearest power of two.
	if got := New(Config{Sample: 5}, 0, 1).Sample(); got != 8 {
		t.Fatalf("Sample 5 rounded to %d, want 8", got)
	}
	if got := New(Config{}, 0, 1).Sample(); got != 1 {
		t.Fatalf("zero config Sample = %d, want 1", got)
	}
}

func TestRanges(t *testing.T) {
	tel := New(Config{Ranges: []Range{
		{Name: "a", Start: 0, Cells: 4},
		{Name: "b", Start: 4, Cells: 4},
	}}, 8, 10)
	for i := 0; i < 6; i++ {
		tel.ProbeObserved(0, 1)
	}
	tel.ProbeObserved(0, 5)
	tel.ProbeObserved(1, 5)
	tel.ObserveQuery(true, false, 1)
	s := tel.Snapshot()
	if len(s.Ranges) != 2 {
		t.Fatalf("Ranges = %+v", s.Ranges)
	}
	a, b := s.Ranges[0], s.Ranges[1]
	if a.Probes != 6 || b.Probes != 2 {
		t.Fatalf("range probes a=%d b=%d, want 6 and 2", a.Probes, b.Probes)
	}
	if math.Abs(a.Share-0.75) > 1e-12 || math.Abs(b.Share-0.25) > 1e-12 {
		t.Fatalf("range shares a=%v b=%v", a.Share, b.Share)
	}
	if a.MaxPhi != 6 || b.MaxPhi != 2 {
		t.Fatalf("range maxΦ̂ a=%v b=%v (1 query)", a.MaxPhi, b.MaxPhi)
	}
}

func TestRangesRequireCells(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ranges with cells=0 accepted")
		}
	}()
	New(Config{Ranges: []Range{{Name: "x", Start: 0, Cells: 1}}}, 0, 1)
}

func TestObserveBatch(t *testing.T) {
	tel := New(Config{}, 0, 1)
	tel.ObserveBatch(10, 7, false, 500)
	tel.ObserveBatch(5, 0, true, 100)
	s := tel.Snapshot()
	if s.Queries != 15 || s.Hits != 7 || s.Misses != 3 || s.Errors != 1 {
		t.Fatalf("batch counts: %+v", s)
	}
	if s.BatchLatency.Count != 2 {
		t.Fatalf("batch latency count = %d, want 2", s.BatchLatency.Count)
	}
}

func TestTopK(t *testing.T) {
	counts := []uint64{0, 5, 2, 9, 9, 1}
	top := topK(counts, 3)
	if len(top) != 3 {
		t.Fatalf("topK = %+v", top)
	}
	// Ties break toward the lower index.
	if top[0].idx != 3 || top[1].idx != 4 || top[2].idx != 1 {
		t.Fatalf("topK order = %+v", top)
	}
	if got := topK([]uint64{0, 0}, 3); len(got) != 0 {
		t.Fatalf("all-zero topK = %+v", got)
	}
	if got := topK(counts, 0); got != nil {
		t.Fatalf("k=0 topK = %+v", got)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Trace(QueryTrace{KeyHash: uint64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	recent := r.Recent(0)
	if len(recent) != 3 || recent[0].KeyHash != 5 || recent[1].KeyHash != 4 || recent[2].KeyHash != 3 {
		t.Fatalf("Recent = %+v", recent)
	}
	if two := r.Recent(2); len(two) != 2 || two[0].KeyHash != 5 {
		t.Fatalf("Recent(2) = %+v", two)
	}
}

func TestTracerSampling(t *testing.T) {
	// TraceEvery 0 disables tracing entirely.
	off := New(Config{}, 0, 1)
	if off.ShouldTrace() {
		t.Fatal("tracing enabled without TraceEvery")
	}
	if off.Traces() != nil {
		t.Fatal("trace ring exists without TraceEvery")
	}
	// TraceEvery 1 traces every query into the internal ring.
	every := New(Config{TraceEvery: 1, TraceBuffer: 8}, 0, 1)
	for i := 0; i < 5; i++ {
		if !every.ShouldTrace() {
			t.Fatal("TraceEvery=1 skipped a query")
		}
		every.Emit(QueryTrace{KeyHash: uint64(i)})
	}
	if got := len(every.Traces()); got != 5 {
		t.Fatalf("ring holds %d traces, want 5", got)
	}
	// A custom tracer replaces the ring.
	var mu sync.Mutex
	n := 0
	custom := New(Config{TraceEvery: 1, Tracer: tracerFunc(func(QueryTrace) {
		mu.Lock()
		n++
		mu.Unlock()
	})}, 0, 1)
	custom.Emit(QueryTrace{})
	if n != 1 {
		t.Fatalf("custom tracer saw %d traces, want 1", n)
	}
	if custom.Traces() != nil {
		t.Fatal("internal ring populated despite custom tracer")
	}
	// TraceEvery k samples roughly 1/k of queries.
	sampled := New(Config{TraceEvery: 8}, 0, 1)
	hits := 0
	const trials = 64000
	for i := 0; i < trials; i++ {
		if sampled.ShouldTrace() {
			hits++
		}
	}
	if ratio := float64(hits) / trials * 8; math.Abs(ratio-1) > 0.15 {
		t.Fatalf("TraceEvery=8 sampled %d/%d (%.2fx expected)", hits, trials, ratio)
	}
}

type tracerFunc func(QueryTrace)

func (f tracerFunc) Trace(qt QueryTrace) { f(qt) }

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram()
	if s := h.Snapshot(); s.Count != 0 || s.Buckets != nil {
		t.Fatalf("empty snapshot = %+v", s)
	}
	// 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 1000 → bucket 10.
	for _, v := range []uint64{0, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 1006 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
	if len(s.Buckets) != 11 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[2] != 2 || s.Buckets[10] != 1 {
		t.Fatalf("bucket placement = %v", s.Buckets)
	}
	if s.Max != 1024 {
		t.Fatalf("Max = %d, want 1024", s.Max)
	}
	// Median of {0,1,2,3,1000}: the 3rd observation lies in bucket 2 → upper bound 4.
	if s.P50 != 4 {
		t.Fatalf("P50 = %d, want 4", s.P50)
	}
	if s.P99 != 1024 {
		t.Fatalf("P99 = %d, want 1024", s.P99)
	}
	if math.Abs(s.Mean-1006.0/5) > 1e-9 {
		t.Fatalf("Mean = %v", s.Mean)
	}
}

func TestDynamicMetrics(t *testing.T) {
	tel := New(Config{}, 0, 1)
	m0 := tel.DynamicShard(0)
	m2 := tel.DynamicShard(2)
	if tel.DynamicShard(0) != m0 {
		t.Fatal("DynamicShard not stable")
	}
	m0.RebuildDone(100, 5000)
	m0.RebuildDone(200, 7000)
	m0.RebuildFailed(300)
	m0.WriterPaused(12345)
	m0.SetDeltaDepth(5)
	m0.SetDeltaDepth(9)
	m0.SetDeltaDepth(2)
	m2.RebuildDone(50, 1000)
	s := tel.Snapshot()
	if len(s.Dynamic) != 3 {
		t.Fatalf("dynamic shards = %d, want 3", len(s.Dynamic))
	}
	d0 := s.Dynamic[0]
	if d0.Rebuilds != 2 || d0.RebuildKeys != 300 || d0.RebuildFails != 1 {
		t.Fatalf("shard0 = %+v", d0)
	}
	if d0.DeltaDepth != 2 || d0.DeltaHighWater != 9 {
		t.Fatalf("delta depth = %d high %d", d0.DeltaDepth, d0.DeltaHighWater)
	}
	if d0.RebuildNs.Count != 3 || d0.WriterPauseNs.Count != 1 {
		t.Fatalf("histograms = %+v", d0)
	}
	if s.Dynamic[1].Rebuilds != 0 || s.Dynamic[2].Rebuilds != 1 {
		t.Fatalf("shards 1/2 = %+v", s.Dynamic[1:])
	}
}

func TestCompareExact(t *testing.T) {
	s := Snapshot{
		MaxPhi:         0.002,
		ProbesPerQuery: 14,
		StepMass:       []float64{1, 1, 0.5},
	}
	ex := contention.ExactResult{
		MaxTotal: 0.001,
		Probes:   7,
		StepMass: []float64{1, 0.8, 0.5, 0.25},
	}
	d := s.CompareExact(ex)
	if d.MaxPhiRatio != 2.0 || d.ProbesRatio != 2.0 {
		t.Fatalf("ratios = %+v", d)
	}
	// L∞ over the union of steps: |1-0.8| at step 1 vs the unmatched 0.25.
	if math.Abs(d.StepMassMaxDiff-0.25) > 1e-12 {
		t.Fatalf("StepMassMaxDiff = %v, want 0.25", d.StepMassMaxDiff)
	}
	// Zero exact values leave the ratios at zero rather than dividing.
	if z := (Snapshot{}).CompareExact(contention.ExactResult{}); z.MaxPhiRatio != 0 || z.ProbesRatio != 0 {
		t.Fatalf("zero compare = %+v", z)
	}
}

// TestConcurrentProbes drives ProbeObserved and ObserveQuery from many
// goroutines; the snapshot must account every probe exactly (sampling off).
func TestConcurrentProbes(t *testing.T) {
	tel := New(Config{TraceEvery: 4, TopK: 5}, 64, 1000)
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tel.ProbeObserved(i%7, (g*perG+i)%64)
				tel.ObserveQuery(i%2 == 0, false, int64(i%1000))
				if tel.ShouldTrace() {
					tel.Emit(QueryTrace{KeyHash: uint64(i)})
				}
			}
		}(g)
	}
	wg.Wait()
	s := tel.Snapshot()
	if want := uint64(goroutines * perG); s.Probes != want || s.Queries != want {
		t.Fatalf("probes %d queries %d, want %d each", s.Probes, s.Queries, want)
	}
	if s.Latency.Count != uint64(goroutines*perG) {
		t.Fatalf("latency count %d", s.Latency.Count)
	}
}
