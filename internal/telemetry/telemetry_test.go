package telemetry

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/contention"
)

// probe feeds tel one probe through the per-call feed: a capture of one
// probe, flushed as a query's would be.
func probe(tel *Telemetry, step, cell int) {
	c := tel.NewCapture()
	c.Probe(step, cell)
	c.Flush()
}

func TestSnapshotCounts(t *testing.T) {
	tel := New(Config{TopK: 3}, 10, 100)
	// 4 queries: cell 7 probed at step 0 every time, cell 3 at step 1
	// half the time.
	for q := 0; q < 4; q++ {
		probe(tel, 0, 7)
		if q%2 == 0 {
			probe(tel, 1, 3)
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
	probe(tel, 3, 0)
	probe(tel, 4, 0)
	probe(tel, 1000, 0)
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

// TestFlushTally: a tally flushes to exactly what a capture of the same
// probes counts, and every configuration takes a tally of StepCap+1 slots.
func TestFlushTally(t *testing.T) {
	per, tallied := New(Config{StepCap: 4}, 0, 1), New(Config{StepCap: 4}, 0, 1)
	tally := make([]uint64, tallied.TallyLen())
	if len(tally) != 5 {
		t.Fatalf("TallyLen = %d, want StepCap+1 = 5", len(tally))
	}
	for _, step := range []int{0, 3, 3, 4, 1000} {
		probe(per, step, 0)
		tally[min(step, len(tally)-1)]++
	}
	tallied.FlushTally(tally)
	tallied.FlushTally(tally) // zeroed by the first flush: adds nothing
	for _, tel := range []*Telemetry{per, tallied} {
		tel.ObserveQuery(true, false, 1)
	}
	a, b := per.Snapshot(), tallied.Snapshot()
	if a.Probes != 5 || b.Probes != a.Probes || !slices.Equal(b.StepMass, a.StepMass) {
		t.Fatalf("flushed %d probes %v, captured %d %v", b.Probes, b.StepMass, a.Probes, a.StepMass)
	}
	for name, tel := range map[string]*Telemetry{
		"sampled":  New(Config{Sample: 8}, 0, 1),
		"per-cell": New(Config{}, 16, 1),
	} {
		if n := tel.TallyLen(); n != 65 {
			t.Errorf("%s telemetry TallyLen = %d, want the default StepCap+1 = 65", name, n)
		}
	}
}

// TestSamplingScalesUnbiased: at Sample 8 the step counts stay exact, about
// 1 in 8 queries is folded, and the per-cell counts scaled back up by 8
// estimate the true per-cell mass.
func TestSamplingScalesUnbiased(t *testing.T) {
	tel := New(Config{Sample: 8}, 4, 16)
	if tel.Sample() != 8 {
		t.Fatalf("Sample = %d, want 8", tel.Sample())
	}
	const queries = 200000
	for i := 0; i < queries; i++ {
		probe(tel, 0, i%4)
		tel.ObserveQuery(true, false, 1)
	}
	s := tel.Snapshot()
	if s.Probes != queries || s.StepMass[0] != 1 {
		t.Fatalf("step counts not exact: %d probes, step mass %v", s.Probes, s.StepMass)
	}
	// Bernoulli(1/8) over 200k queries: each cell's scaled estimate of its
	// true mass 1/4 concentrates within a few percent.
	if len(s.TopCells) != 4 {
		t.Fatalf("TopCells = %+v, want all 4 cells", s.TopCells)
	}
	for _, c := range s.TopCells {
		if math.Abs(4*c.Phi-1) > 0.10 {
			t.Fatalf("cell %d: scaled Φ̂ %.4f off by more than 10%% from 0.25", c.Cell, c.Phi)
		}
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
		probe(tel, 0, 1)
	}
	probe(tel, 0, 5)
	probe(tel, 1, 5)
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

func TestTracerSampling(t *testing.T) {
	// Tracing needs both TraceEvery and a Tracer.
	var mu sync.Mutex
	var got []QueryTrace
	collect := tracerFunc(func(qt QueryTrace) {
		mu.Lock()
		got = append(got, qt)
		mu.Unlock()
	})
	for name, cfg := range map[string]Config{
		"zero config":    {},
		"no tracer":      {TraceEvery: 1},
		"no trace every": {Tracer: collect},
	} {
		if New(cfg, 0, 1).ShouldTrace() {
			t.Fatalf("%s: tracing enabled", name)
		}
	}
	// TraceEvery 1 traces every query into the tracer.
	every := New(Config{TraceEvery: 1, Tracer: collect}, 0, 1)
	for i := 0; i < 5; i++ {
		if !every.ShouldTrace() {
			t.Fatal("TraceEvery=1 skipped a query")
		}
		every.Emit(QueryTrace{KeyHash: uint64(i)})
	}
	if len(got) != 5 || got[4].KeyHash != 4 {
		t.Fatalf("tracer saw %+v, want 5 traces in order", got)
	}
	// TraceEvery k samples roughly 1/k of queries.
	sampled := New(Config{TraceEvery: 8, Tracer: collect}, 0, 1)
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

func TestCompareExactStepsBoundsBufferSteps(t *testing.T) {
	// A dynamic dictionary's live step masses: the static snapshot occupies
	// steps 0..3 (MaxProbes 4) and the always-executed update-buffer probe
	// lands at step 4 with mass 1. The exact analysis models only the static
	// snapshot.
	s := Snapshot{
		MaxPhi:         0.01,
		ProbesPerQuery: 3.5, // includes the buffer probe
		StepMass:       []float64{1, 1, 0.5, 0, 1},
	}
	ex := contention.ExactResult{
		MaxTotal: 0.01,
		Probes:   2.5,
		StepMass: []float64{1, 1, 0.5, 0},
	}
	// Unbounded compare sees the buffer step as a spurious mass-1 gap —
	// the regression this API exists to fix.
	if d := s.CompareExact(ex); d.StepMassMaxDiff != 1.0 {
		t.Fatalf("unbounded StepMassMaxDiff = %v, want the spurious 1.0", d.StepMassMaxDiff)
	}
	// Bounded to the snapshot's MaxProbes: step 3 is still compared, step 4
	// is not, and probes per query recomputes to the in-range mass.
	d := s.CompareExactSteps(ex, 4)
	if d.StepMassMaxDiff != 0 {
		t.Fatalf("bounded StepMassMaxDiff = %v, want 0", d.StepMassMaxDiff)
	}
	if d.ProbesLive != 2.5 || d.ProbesRatio != 1.0 {
		t.Fatalf("bounded probes live=%v ratio=%v, want 2.5 and 1.0", d.ProbesLive, d.ProbesRatio)
	}
	if d.MaxPhiRatio != 1.0 {
		t.Fatalf("MaxPhiRatio = %v, want 1.0", d.MaxPhiRatio)
	}
	// A genuine static-range gap still surfaces: perturb step 3.
	s.StepMass[3] = 0.25
	if d := s.CompareExactSteps(ex, 4); math.Abs(d.StepMassMaxDiff-0.25) > 1e-12 {
		t.Fatalf("boundary step 3 diff = %v, want 0.25", d.StepMassMaxDiff)
	}
	// Exact steps beyond the live vector but inside the bound still count
	// (a live workload that never reached step 3 must not hide its absence).
	short := Snapshot{StepMass: []float64{1, 1}, ProbesPerQuery: 2}
	if d := short.CompareExactSteps(ex, 4); math.Abs(d.StepMassMaxDiff-0.5) > 1e-12 {
		t.Fatalf("missing live steps diff = %v, want 0.5", d.StepMassMaxDiff)
	}
}

// TestConcurrentProbes drives the per-call feed and ObserveQuery from many
// goroutines; the snapshot must account every probe exactly, in the step
// counts and in the per-cell counts (sampling off).
func TestConcurrentProbes(t *testing.T) {
	var traced atomic.Uint64
	tel := New(Config{TraceEvery: 4, TopK: 5, Tracer: tracerFunc(func(QueryTrace) { traced.Add(1) })}, 64, 1000)
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				probe(tel, i%7, (g*perG+i)%64)
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
	var folded uint64
	for _, c := range tel.perCell.Sums() {
		folded += c
	}
	if folded != s.Probes {
		t.Fatalf("per-cell counts hold %d probes, step counts %d", folded, s.Probes)
	}
	if s.Latency.Count != uint64(goroutines*perG) {
		t.Fatalf("latency count %d", s.Latency.Count)
	}
	if traced.Load() == 0 {
		t.Fatal("TraceEvery=4 traced no query")
	}
}
