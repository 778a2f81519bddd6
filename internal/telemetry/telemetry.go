// Package telemetry is the live observability subsystem of the
// low-contention dictionary: an always-cheap, opt-in layer that measures at
// runtime the quantity the rest of the repository computes offline — the
// per-cell contention Φ of Definition 1 — together with probe traces,
// query-latency histograms and rebuild metrics for the dynamic path.
//
// # Design
//
// Probes land on cache-line-striped counters (cellprobe.StripedVector, the
// vector generalization of StripedCounter): a per-step vector for the probe
// mass of each query step and, for static dictionaries, a per-cell vector
// for the empirical per-cell probe mass Φ̂(j). The counters inherit the
// structure's own contention profile — the hottest counter receives exactly
// the probe mass of the hottest cell, which is the O(1/n) the paper
// guarantees — and the striping removes the residual false sharing between
// adjacent cells' counters.
//
// Probes arrive by one feed, once per call, and telemetry is installed on
// no table. Every query counts its probes per step into a tally in the
// caller's scratch (cellprobe.Table.ProbeTo, or the cell view), handed over
// with one FlushTally per query or batch, so step counts are exact. A static
// dictionary also captures 1 in Sample queries (ShouldFold decides, once
// per query) as (step, cell) pairs, and FoldCells adds one call's captured
// pairs to the per-cell counters and the (step, cell) sketch; Snapshot
// scales the per-cell figures back up by Sample. A dynamic dictionary's
// tables are replaced on every rebuild, so its telemetry is cell-agnostic
// and takes tallies only.
//
// When telemetry is *off* nothing is fed: the query path counts into no
// tally that anyone reads and performs zero atomic writes and zero
// allocations.
//
// # Self-check against theory
//
// Snapshot returns the empirical maxΦ̂·n, per-step probe mass and probes per
// query; Snapshot.CompareExact diffs those against a contention.ExactResult
// so the drift between the analytic prediction and the live workload is
// itself a monitored signal (experiment A8).
//
// Φ̂(j) here is the per-cell *total* probe mass Σ_t Φ̂_t(j), the contention
// of Definition 1; compare it with ExactResult.MaxTotal. (The full per-step
// × per-cell matrix remains the sequential Recorder's job — keeping the
// live counters to the two marginals is what makes them cheap enough to
// leave on in production.)
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cellprobe"
	"repro/internal/telemetry/events"
)

// Config configures a Telemetry instance. The zero value is valid: count
// every probe, no tracing, default capacities.
type Config struct {
	// Sample folds the cells of 1 in Sample queries (rounded up to a power
	// of two) into the per-cell counters and the sketch; 0 or 1 folds every
	// query's. Step counts are exact whatever the value. Snapshot scales the
	// per-cell figures back up by Sample, so estimates stay unbiased.
	Sample int
	// TraceEvery traces roughly 1 in TraceEvery queries into Tracer
	// (per-goroutine sampled, so concurrent tracers never contend on a
	// shared sequence counter). Queries are traced only when both
	// TraceEvery > 0 and Tracer are set.
	TraceEvery int
	// Tracer receives every sampled QueryTrace.
	Tracer Tracer
	// TopK is how many hottest cells Snapshot reports (default 10).
	TopK int
	// StepCap bounds the per-step vector; probes at steps ≥ StepCap are
	// accumulated in the final overflow slot (default 64, far above any
	// scheme's MaxProbes; open-addressing chains can exceed it).
	StepCap int
	// Ranges, when non-empty, makes Snapshot report per-range probe mass
	// and maxΦ̂ — the facade uses it for per-shard views of the sharded
	// composite. Ranges require per-cell accounting (cells > 0 in New).
	Ranges []Range
	// Events, when non-nil, is the flight recorder this instance emits into
	// and reports from — the facade shares one log between the telemetry
	// layer and the dynamic dictionary's rebuild path. Nil creates a
	// private log: the recorder is always on.
	Events *events.Log
	// SketchSlots sizes each per-stripe reservoir of the (step, cell)
	// sketch (default 256). The sketch needs per-cell accounting, so it
	// exists only when cells > 0 in New; set SketchSlots < 0 to disable it
	// there too.
	SketchSlots int
	// SketchTopK is how many hottest cells the snapshot reports per step
	// (default 3).
	SketchTopK int
}

// Range names a span of flat cell indices for per-range snapshot views.
type Range struct {
	Name  string `json:"name"`
	Start int    `json:"start"`
	Cells int    `json:"cells"`
}

// handle is the per-goroutine state of the feed: the stripe identity shared
// by every striped vector a flush or fold charges, and a splitmix64 state
// for the sampling decisions. Cached through a sync.Pool exactly like
// StripedCounter's index handles.
type handle struct {
	stripe uint64
	rng    uint64
}

// Telemetry is one dictionary's live telemetry state. All methods are safe
// for concurrent use; the feed (FlushTally, FoldCells) and the query path
// (ObserveQuery, ShouldTrace, ShouldFold, Emit) are lock-free.
type Telemetry struct {
	cfg        Config
	n          int // stored keys, for the maxΦ̂·n headline
	cells      int // 0 = cell-agnostic (dynamic dictionaries)
	sampleMask uint64
	traceMask  uint64
	stepCap    int

	steps   *cellprobe.StripedVector // per-step probe counts (slot stepCap = overflow)
	perCell *cellprobe.StripedVector // per-cell probe counts, nil when cells == 0

	queries *cellprobe.StripedCounter
	hits    *cellprobe.StripedCounter
	misses  *cellprobe.StripedCounter
	errors  *cellprobe.StripedCounter

	latency      *LogHistogram // single-query Contains latency, ns
	batchLatency *LogHistogram // whole-batch ContainsBatch latency, ns

	tracer Tracer
	events *events.Log
	sketch *StepCellSketch // nil in cell-agnostic mode or when disabled

	pool sync.Pool // *handle

	dynMu sync.Mutex
	dyn   []*DynamicMetrics

	started time.Time
}

// ceilPow2 rounds v up to a power of two (v ≤ 1 → 1).
func ceilPow2(v int) int {
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// New creates a telemetry instance for a dictionary of n keys whose table
// has the given cell count. cells == 0 selects cell-agnostic mode (per-step
// masses, latencies and counters only — what the dynamic dictionary uses,
// since its tables are replaced on every rebuild).
func New(cfg Config, cells, n int) *Telemetry {
	if cfg.Sample < 0 {
		panic(fmt.Sprintf("telemetry: negative sample %d", cfg.Sample))
	}
	sample := ceilPow2(cfg.Sample)
	var tracer Tracer
	traceMask := uint64(0)
	if cfg.TraceEvery > 0 && cfg.Tracer != nil {
		tracer = cfg.Tracer
		traceMask = uint64(ceilPow2(cfg.TraceEvery) - 1)
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	if cfg.StepCap <= 0 {
		cfg.StepCap = 64
	}
	if len(cfg.Ranges) > 0 && cells == 0 {
		panic("telemetry: Ranges require per-cell accounting (cells > 0)")
	}
	for _, r := range cfg.Ranges {
		if r.Start < 0 || r.Cells < 1 || r.Start+r.Cells > cells {
			panic(fmt.Sprintf("telemetry: range %q [%d, %d) outside [0, %d)", r.Name, r.Start, r.Start+r.Cells, cells))
		}
	}
	stripes := cellprobe.DefaultVectorStripes()
	t := &Telemetry{
		cfg:          cfg,
		n:            n,
		cells:        cells,
		sampleMask:   uint64(sample - 1),
		traceMask:    traceMask,
		stepCap:      cfg.StepCap,
		steps:        cellprobe.NewStripedVector(cfg.StepCap+1, stripes),
		queries:      cellprobe.NewStripedCounter(),
		hits:         cellprobe.NewStripedCounter(),
		misses:       cellprobe.NewStripedCounter(),
		errors:       cellprobe.NewStripedCounter(),
		latency:      NewLogHistogram(),
		batchLatency: NewLogHistogram(),
		tracer:       tracer,
		started:      time.Now(),
	}
	t.events = cfg.Events
	if t.events == nil {
		t.events = events.NewLog()
	}
	if cells > 0 {
		t.perCell = cellprobe.NewStripedVector(cells, stripes)
		if cfg.SketchSlots >= 0 {
			t.sketch = NewStepCellSketch(cfg.SketchSlots, stripes)
		}
	}
	var next uint64
	var mu sync.Mutex
	t.pool.New = func() any {
		mu.Lock()
		next++
		id := next - 1
		mu.Unlock()
		// Seed the sampling stream from the stripe identity so stripes
		// sample decorrelated query subsets.
		return &handle{stripe: id, rng: splitmix64(id ^ 0x9e3779b97f4a7c15)}
	}
	return t
}

// Sample returns the query sampling factor k of the per-cell counts (a
// power of two ≥ 1).
func (t *Telemetry) Sample() int { return int(t.sampleMask) + 1 }

// Cells returns the per-cell accounting width (0 in cell-agnostic mode).
func (t *Telemetry) Cells() int { return t.cells }

// N returns the stored-key count the maxΦ̂·n headline normalizes by.
func (t *Telemetry) N() int { return t.n }

// splitmix64 advances one splitmix64 state and returns the mixed output.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// draw advances the handle's splitmix64 state and returns its output.
func (h *handle) draw() uint64 {
	z := splitmix64(h.rng)
	h.rng += 0x9e3779b97f4a7c15
	return z
}

// TallyLen reports the length of the per-step tally a caller counts a
// call's probes into and hands over with FlushTally: StepCap+1, the last
// slot taking every step beyond StepCap.
func (t *Telemetry) TallyLen() int { return t.stepCap + 1 }

// FlushTally adds a caller's per-step probe tally (see TallyLen) to the
// per-step counters on the calling goroutine's stripe and zeroes it: one
// handle fetch and one atomic add per non-zero step, whatever the number of
// probes tallied.
func (t *Telemetry) FlushTally(tally []uint64) {
	if len(tally) != t.stepCap+1 {
		panic(fmt.Sprintf("telemetry: tally of length %d, want %d", len(tally), t.stepCap+1))
	}
	h := t.pool.Get().(*handle)
	for i, c := range tally {
		if c != 0 {
			t.steps.AddStripeN(h.stripe, i, c)
			tally[i] = 0
		}
	}
	t.pool.Put(h)
}

// ShouldFold makes the per-goroutine 1-in-Sample decision to capture a
// query for FoldCells: always at Sample 1, never in cell-agnostic mode.
func (t *Telemetry) ShouldFold() bool { return t.perCell != nil && t.oneIn(t.sampleMask) }

// FoldCells adds one call's captured probes — the (step, cell) pairs of the
// queries ShouldFold chose — to the per-cell counters and the sketch on the
// calling goroutine's stripe: one handle fetch per call. Steps beyond
// StepCap are sketched in the overflow slot. Cell-agnostic mode ignores it.
func (t *Telemetry) FoldCells(probes []cellprobe.StepCell) {
	if t.perCell == nil || len(probes) == 0 {
		return
	}
	h := t.pool.Get().(*handle)
	for _, p := range probes {
		t.perCell.AddStripeN(h.stripe, int(p.Cell), 1)
		if t.sketch != nil {
			t.sketch.offer(h, min(int(p.Step), t.stepCap), int(p.Cell))
		}
	}
	t.pool.Put(h)
}

// Capture is the per-call feed of a sequential caller whose query path
// knows nothing of telemetry (a roster scheme, a simulated probe stream):
// Probe, a table trace (cellprobe.Table.SetTrace), tallies and records each
// probe, and Flush hands one query over.
type Capture struct {
	tel    *Telemetry
	tally  []uint64
	probes []cellprobe.StepCell
}

// NewCapture returns an empty capture feeding t, for one goroutine.
func (t *Telemetry) NewCapture() *Capture {
	return &Capture{tel: t, tally: make([]uint64, t.TallyLen())}
}

// Probe records one probe of the query in progress.
func (c *Capture) Probe(step, cell int) {
	c.tally[min(step, len(c.tally)-1)]++
	c.probes = append(c.probes, cellprobe.StepCell{Step: int32(step), Cell: int32(cell)})
}

// Flush ends one query: its step tally is flushed, and its cells are folded
// when ShouldFold picks the query.
func (c *Capture) Flush() {
	c.tel.FlushTally(c.tally)
	if c.tel.ShouldFold() {
		c.tel.FoldCells(c.probes)
	}
	c.probes = c.probes[:0]
}

// Events returns the flight recorder this instance emits into — always
// non-nil (a private log is created when the configuration supplies none).
func (t *Telemetry) Events() *events.Log { return t.events }

// Timeline returns up to max flight-recorder events with sequence numbers
// beyond since, oldest first, plus the cursor for the next call —
// lcds-server's /debug/timeline pagination contract.
func (t *Telemetry) Timeline(since uint64, max int) ([]events.Event, uint64) {
	return t.events.Timeline(since, max)
}

// ObserveQuery records the completion of one membership query: its outcome
// and its latency in nanoseconds.
func (t *Telemetry) ObserveQuery(found, failed bool, latencyNs int64) {
	t.queries.Add(1)
	switch {
	case failed:
		t.errors.Add(1)
	case found:
		t.hits.Add(1)
	default:
		t.misses.Add(1)
	}
	t.latency.Observe(uint64(latencyNs))
}

// ObserveBatch records the completion of one ContainsBatch call answering
// queries keys, hits of them positively, with the whole batch taking
// latencyNs. failed marks a batch that stopped at a corrupt-table error.
func (t *Telemetry) ObserveBatch(queries, hits int, failed bool, latencyNs int64) {
	t.queries.Add(uint64(queries))
	t.hits.Add(uint64(hits))
	if failed {
		t.errors.Add(1)
	} else {
		t.misses.Add(uint64(queries - hits))
	}
	t.batchLatency.Observe(uint64(latencyNs))
}

// ShouldTrace makes the per-goroutine 1-in-TraceEvery decision for query
// tracing. It is false for every query when tracing is disabled.
func (t *Telemetry) ShouldTrace() bool { return t.tracer != nil && t.oneIn(t.traceMask) }

// oneIn reports a 1-in-(mask+1) draw on the calling goroutine's stream.
func (t *Telemetry) oneIn(mask uint64) bool {
	if mask == 0 {
		return true
	}
	h := t.pool.Get().(*handle)
	ok := h.draw()&mask == 0
	t.pool.Put(h)
	return ok
}

// Emit delivers one completed query trace to the tracer. Callers pair it
// with ShouldTrace.
func (t *Telemetry) Emit(qt QueryTrace) {
	if t.tracer != nil {
		t.tracer.Trace(qt)
	}
}

// DynamicShard returns the rebuild-metrics slot for shard i, creating slots
// up to i on first use. The dynamic dictionary (and each shard of the
// sharded dynamic composite) records epoch publishes, rebuild durations and
// writer pauses through it.
func (t *Telemetry) DynamicShard(i int) *DynamicMetrics {
	t.dynMu.Lock()
	defer t.dynMu.Unlock()
	for len(t.dyn) <= i {
		t.dyn = append(t.dyn, NewDynamicMetrics(len(t.dyn)))
	}
	return t.dyn[i]
}

// HotCell is one entry of the top-K hottest-cells report.
type HotCell struct {
	Cell  int     `json:"cell"`  // flat cell index
	Count uint64  `json:"count"` // folded probes (unscaled)
	Phi   float64 `json:"phi"`   // Φ̂(j) = Sample·Count/Queries
}

// RangeView is the snapshot of one configured cell range.
type RangeView struct {
	Name   string  `json:"name"`
	Start  int     `json:"start"`
	Cells  int     `json:"cells"`
	Probes uint64  `json:"probes"` // scaled estimate
	Share  float64 `json:"share"`  // fraction of all folded probes
	MaxPhi float64 `json:"max_phi"`
}

// Snapshot is a point-in-time summary of everything the telemetry layer
// measures. Counters are full-sweep reads and may miss events concurrent
// with the snapshot; ratios are internally consistent to within that skew.
type Snapshot struct {
	Queries uint64 `json:"queries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Errors  uint64 `json:"errors"`
	// Probes is the total probe count, exact at every Sample.
	Probes uint64 `json:"probes"`
	Sample int    `json:"sample"`
	Cells  int    `json:"cells"`
	N      int    `json:"n"`

	ProbesPerQuery float64 `json:"probes_per_query"`
	// MaxPhi is max_j Φ̂(j), the empirical per-cell total contention of
	// Definition 1; MaxPhiN = MaxPhi·n is the headline the A-series tables
	// report (1.00 for the core dictionary under uniform-positive load).
	MaxPhi     float64 `json:"max_phi"`
	MaxPhiN    float64 `json:"max_phi_n"`
	MaxPhiCell int     `json:"max_phi_cell"`
	// StepMass[t] estimates the probability a query executes step t
	// (trailing all-zero steps trimmed; the last slot aggregates steps
	// beyond StepCap).
	StepMass []float64 `json:"step_mass"`

	TopCells []HotCell   `json:"top_cells,omitempty"`
	Ranges   []RangeView `json:"ranges,omitempty"`

	// StepCells is the per-step hottest-cell table derived from the
	// reservoir-sampled (step, cell) sketch, present when per-cell
	// accounting and the sketch are enabled.
	StepCells []StepCellView `json:"step_cells,omitempty"`

	Latency      HistogramSnapshot `json:"latency_ns"`
	BatchLatency HistogramSnapshot `json:"batch_latency_ns"`

	Dynamic []DynamicSnapshot `json:"dynamic,omitempty"`

	// Events summarizes the flight recorder: per-type counts and the
	// newest timeline cursor.
	Events events.Stats `json:"events"`

	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Snapshot sweeps the counters and summarizes them. It allocates (one word
// per table cell) and is meant for scrape/inspection cadence, not the query
// path.
func (t *Telemetry) Snapshot() Snapshot {
	// Per-cell counts of 1-in-k sampled queries scale up by k; step counts
	// are exact.
	scale := float64(t.Sample())
	s := Snapshot{
		Queries: t.queries.Sum(),
		Hits:    t.hits.Sum(),
		Misses:  t.misses.Sum(),
		Errors:  t.errors.Sum(),
		Sample:  t.Sample(),
		Cells:   t.cells,
		N:       t.n,

		Latency:       t.latency.Snapshot(),
		BatchLatency:  t.batchLatency.Snapshot(),
		UptimeSeconds: time.Since(t.started).Seconds(),
	}
	stepCounts := t.steps.Sums()
	var probes uint64
	last := 0
	for i, c := range stepCounts {
		probes += c
		if c > 0 {
			last = i
		}
	}
	s.Probes = probes
	if s.Queries > 0 {
		q := float64(s.Queries)
		s.ProbesPerQuery = float64(s.Probes) / q
		s.StepMass = make([]float64, last+1)
		for i := range s.StepMass {
			s.StepMass[i] = float64(stepCounts[i]) / q
		}
	}
	if t.perCell != nil && s.Queries > 0 {
		q := float64(s.Queries)
		counts := t.perCell.Sums()
		var folded uint64
		for _, c := range counts {
			folded += c
		}
		top := topK(counts, t.cfg.TopK)
		for _, h := range top {
			s.TopCells = append(s.TopCells, HotCell{Cell: h.idx, Count: h.count, Phi: scale * float64(h.count) / q})
		}
		if len(top) > 0 {
			s.MaxPhi = scale * float64(top[0].count) / q
			s.MaxPhiN = s.MaxPhi * float64(t.n)
			s.MaxPhiCell = top[0].idx
		}
		for _, r := range t.cfg.Ranges {
			var sum, best uint64
			for _, c := range counts[r.Start : r.Start+r.Cells] {
				sum += c
				best = max(best, c)
			}
			rv := RangeView{Name: r.Name, Start: r.Start, Cells: r.Cells,
				Probes: sum * uint64(scale),
				MaxPhi: scale * float64(best) / q,
			}
			if folded > 0 {
				rv.Share = float64(sum) / float64(folded)
			}
			s.Ranges = append(s.Ranges, rv)
		}
	}
	if t.sketch != nil {
		k := t.cfg.SketchTopK
		if k <= 0 {
			k = 3
		}
		s.StepCells = t.sketch.Snapshot(k)
	}
	t.dynMu.Lock()
	for _, m := range t.dyn {
		s.Dynamic = append(s.Dynamic, m.Snapshot())
	}
	t.dynMu.Unlock()
	s.Events = t.events.Stats()
	return s
}

// cellCount pairs a cell index with its probe count for top-K selection.
type cellCount struct {
	idx   int
	count uint64
}

// topK returns the k highest-count cells, hottest first (ties by lower
// index). Zero-count cells are never reported.
func topK(counts []uint64, k int) []cellCount {
	if k <= 0 {
		return nil
	}
	top := make([]cellCount, 0, k+1)
	worst := uint64(0)
	for i, c := range counts {
		if c == 0 || (len(top) == k && c <= worst) {
			continue
		}
		top = append(top, cellCount{idx: i, count: c})
		sort.Slice(top, func(a, b int) bool {
			if top[a].count != top[b].count {
				return top[a].count > top[b].count
			}
			return top[a].idx < top[b].idx
		})
		if len(top) > k {
			top = top[:k]
		}
		worst = top[len(top)-1].count
	}
	return top
}
