package lcds

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestTelemetryAcceptance is the PR's headline self-check: with telemetry
// at sampling 1, the empirical maxΦ̂·n measured over ≥1e6 uniform queries on
// an n=8192 core dictionary must match the exact offline analysis
// (contention.Exact) within 5%.
//
// The workload drives every stored key the same number of times
// (round-robin over the member set = the uniform-positive distribution
// realized deterministically), so the per-cell counts concentrate on their
// expectations instead of adding max-of-n-binomials extreme-value bias on
// top of the estimate.
func TestTelemetryAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-query acceptance drive skipped in -short")
	}
	const (
		n      = 8192
		passes = 128 // 128 × 8192 = 1,048,576 ≥ 1e6 queries
	)
	keys := testKeys(n, 20100613)
	d, err := New(keys, WithSeed(20100613), WithTelemetry(TelemetryConfig{Sample: 1}))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]bool, n)
	for p := 0; p < passes; p++ {
		if err := d.ContainsBatch(keys, out); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Telemetry().Snapshot()
	if snap.Queries != n*passes {
		t.Fatalf("queries = %d, want %d", snap.Queries, n*passes)
	}
	drift, err := d.TelemetryCompareExact(keys)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("maxΦ̂·n live %.4f exact %.4f (ratio %.4f); probes/query live %.3f exact %.3f; step-mass L∞ %.2e",
		snap.MaxPhiN, drift.MaxPhiExact*n, drift.MaxPhiRatio, drift.ProbesLive, drift.ProbesExact, drift.StepMassMaxDiff)
	if math.Abs(drift.MaxPhiRatio-1) > 0.05 {
		t.Fatalf("empirical maxΦ̂·n = %.4f vs exact %.4f: off by %.1f%%, want ≤ 5%%",
			snap.MaxPhiN, drift.MaxPhiExact*n, 100*math.Abs(drift.MaxPhiRatio-1))
	}
	if math.Abs(drift.ProbesRatio-1) > 0.05 {
		t.Fatalf("probes/query live %.3f vs exact %.3f", drift.ProbesLive, drift.ProbesExact)
	}
}

// TestTelemetryOffNoSink asserts the telemetry-off contract: Telemetry()
// is nil and every table hands out its cell view, so queries read through
// the view and perform zero additional atomic writes (there is no counter to
// write). The zero-additional-allocations half is guarded by
// TestContainsZeroAlloc, which runs against a telemetry-off dictionary.
func TestTelemetryOffNoSink(t *testing.T) {
	keys := testKeys(512, 21)
	d, err := New(keys, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	if d.Telemetry() != nil {
		t.Fatal("Telemetry() non-nil without WithTelemetry")
	}
	if d.structure().Table().CellView() == nil {
		t.Fatal("cell view withheld without WithTelemetry")
	}
	sharded, err := New(keys, WithSeed(21), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Telemetry() != nil || sharded.structure().Table().CellView() == nil {
		t.Fatal("sharded telemetry installed or routing-table cell view withheld without WithTelemetry")
	}
	dyn, err := NewDynamic(keys, 0.25, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Telemetry() != nil {
		t.Fatal("dynamic Telemetry() non-nil without WithTelemetry")
	}
	if dyn.shards.Shard(0).BaseTable().CellView() == nil || dyn.shards.Shard(0).BufferTable().CellView() == nil {
		t.Fatal("dynamic cell view withheld without WithTelemetry")
	}
	if _, err := d.TelemetryCompareExact(keys); err == nil {
		t.Fatal("TelemetryCompareExact succeeded without telemetry")
	}
}

func TestTelemetryCounters(t *testing.T) {
	keys := testKeys(1024, 22)
	d, err := New(keys[:512], WithSeed(22), WithTelemetry(TelemetryConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:100] {
		if !d.Contains(k) {
			t.Fatalf("lost key %d", k)
		}
	}
	for _, k := range keys[512:612] {
		if d.Contains(k) {
			t.Fatalf("phantom key %d", k)
		}
	}
	s := d.Telemetry().Snapshot()
	if s.Queries != 200 || s.Hits != 100 || s.Misses != 100 || s.Errors != 0 {
		t.Fatalf("counters: %+v", s)
	}
	if s.Probes == 0 || s.ProbesPerQuery < 1 {
		t.Fatalf("no probes recorded: %+v", s)
	}
	if s.Latency.Count != 200 {
		t.Fatalf("latency count = %d, want 200", s.Latency.Count)
	}
	if s.Cells != d.SpaceCells() || s.N != 512 {
		t.Fatalf("shape: cells %d (want %d) n %d", s.Cells, d.SpaceCells(), s.N)
	}
	// Every query executes step 0 (a coefficient probe) exactly once.
	if len(s.StepMass) == 0 || math.Abs(s.StepMass[0]-1) > 1e-9 {
		t.Fatalf("StepMass = %v", s.StepMass)
	}
	if len(s.TopCells) == 0 {
		t.Fatal("no hot cells reported")
	}
	// Telemetry observes no table: reads keep the cell view.
	if d.structure().Table().CellView() == nil {
		t.Fatal("cell view withheld with telemetry on")
	}
	// Batch queries land in the same counters via the batch histogram.
	out := make([]bool, 512)
	if err := d.ContainsBatch(keys[:512], out); err != nil {
		t.Fatal(err)
	}
	s = d.Telemetry().Snapshot()
	if s.Queries != 712 || s.BatchLatency.Count != 1 {
		t.Fatalf("after batch: queries %d batches %d", s.Queries, s.BatchLatency.Count)
	}
}

// traceLog is a Tracer that keeps every trace it receives.
type traceLog struct {
	mu     sync.Mutex
	traces []QueryTrace
}

func (l *traceLog) Trace(qt QueryTrace) {
	l.mu.Lock()
	l.traces = append(l.traces, qt)
	l.mu.Unlock()
}

func (l *traceLog) all() []QueryTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]QueryTrace(nil), l.traces...)
}

func TestTelemetryTraces(t *testing.T) {
	keys := testKeys(600, 23)
	var log traceLog
	d, err := New(keys, WithSeed(23), WithTelemetry(TelemetryConfig{TraceEvery: 1, Tracer: &log}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:20] {
		if !d.Contains(k) {
			t.Fatalf("lost key %d", k)
		}
	}
	traces := log.all()
	if len(traces) != 20 {
		t.Fatalf("tracer saw %d traces, want 20", len(traces))
	}
	size := d.SpaceCells()
	for _, tr := range traces {
		if !tr.Found || tr.Err {
			t.Fatalf("trace outcome: %+v", tr)
		}
		if tr.Steps != len(tr.Cells) || tr.Steps != d.MaxProbes() {
			t.Fatalf("trace steps %d cells %d maxprobes %d", tr.Steps, len(tr.Cells), d.MaxProbes())
		}
		for s, c := range tr.Cells {
			if c < 0 || int(c) >= size {
				t.Fatalf("step %d probes cell %d outside [0, %d)", s, c, size)
			}
		}
		if tr.LatencyNs < 0 || tr.KeyHash == 0 {
			t.Fatalf("trace metadata: %+v", tr)
		}
	}
}

func TestTelemetrySharded(t *testing.T) {
	keys := testKeys(4096, 24)
	var log traceLog
	d, err := New(keys, WithSeed(24), WithShards(4), WithTelemetry(TelemetryConfig{TraceEvery: 1, Tracer: &log}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:200] {
		if !d.Contains(k) {
			t.Fatalf("lost key %d", k)
		}
	}
	s := d.Telemetry().Snapshot()
	if len(s.Ranges) != 5 {
		t.Fatalf("ranges = %+v, want route + 4 shards", s.Ranges)
	}
	if s.Ranges[0].Name != "route" || s.Ranges[0].Probes == 0 {
		t.Fatalf("route range = %+v", s.Ranges[0])
	}
	share := 0.0
	for _, r := range s.Ranges {
		share += r.Share
	}
	// The ranges tile the whole composite table, so their shares sum to 1.
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("range shares sum to %v", share)
	}
	// Each traced query's captured cells must lie inside the range of the
	// shard that answered it.
	for _, tr := range log.all() {
		lo := d.sharded.CellOffset(tr.Shard)
		hi := lo + d.sharded.Shard(tr.Shard).Table().Size()
		for _, c := range tr.Cells {
			if int(c) < lo || int(c) >= hi {
				t.Fatalf("shard %d trace probes cell %d outside [%d, %d)", tr.Shard, c, lo, hi)
			}
		}
	}
	// The sharded live estimate matches its own exact analysis (loose
	// bound: only 200 queries).
	if _, err := d.TelemetryCompareExact(keys); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryShardedStepMass pins the step-layout fold: the composite
// ProbeSpec gives each shard a disjoint step range while the live counters
// time-align every shard at step 1, so TelemetryCompareExact must fold the
// exact vector before diffing. Probe counts and step masses are
// deterministic per query, so both comparisons are exact at any pass count.
func TestTelemetryShardedStepMass(t *testing.T) {
	keys := testKeys(1024, 31)
	d, err := New(keys, WithSeed(31), WithShards(4), WithTelemetry(TelemetryConfig{Sample: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 8; pass++ {
		for _, k := range keys {
			if !d.Contains(k) {
				t.Fatalf("lost key %d", k)
			}
		}
	}
	dr, err := d.TelemetryCompareExact(keys)
	if err != nil {
		t.Fatal(err)
	}
	if dr.StepMassMaxDiff > 1e-12 {
		t.Fatalf("sharded step-mass L∞ = %g, want 0 after folding", dr.StepMassMaxDiff)
	}
	if math.Abs(dr.ProbesRatio-1) > 1e-9 {
		t.Fatalf("sharded probes ratio = %v, want exactly 1", dr.ProbesRatio)
	}
}

func TestTelemetryDynamic(t *testing.T) {
	keys := testKeys(3000, 25)
	var log traceLog
	d, err := NewDynamic(keys[:2000], 0.1, WithSeed(25), WithTelemetry(TelemetryConfig{TraceEvery: 1, Tracer: &log}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[2000:2500] {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	d.Quiesce()
	hits := 0
	for _, k := range keys[:2500] {
		ok, err := d.Contains(k)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			hits++
		}
	}
	if hits != 2500 {
		t.Fatalf("lost %d keys", 2500-hits)
	}
	s := d.Telemetry().Snapshot()
	if s.Queries != 2500 || s.Hits != 2500 {
		t.Fatalf("counters: %+v", s)
	}
	if s.Cells != 0 || s.MaxPhi != 0 {
		t.Fatalf("dynamic telemetry should be cell-agnostic: %+v", s)
	}
	if s.Probes == 0 {
		t.Fatal("no probes recorded through the epoch tables")
	}
	if len(s.Dynamic) != 1 {
		t.Fatalf("dynamic shards = %d, want 1", len(s.Dynamic))
	}
	dm := s.Dynamic[0]
	// 500 inserts at ε=0.1 over ~2000 keys: several rebuilds beyond the
	// initial construction.
	if dm.Rebuilds < 2 {
		t.Fatalf("rebuilds = %d, want ≥ 2", dm.Rebuilds)
	}
	if dm.RebuildNs.Count != dm.Rebuilds {
		t.Fatalf("rebuild histogram count %d != rebuilds %d", dm.RebuildNs.Count, dm.Rebuilds)
	}
	if dm.DeltaHighWater == 0 {
		t.Fatal("delta high-water never moved despite 500 buffered inserts")
	}
	if len(log.all()) == 0 {
		t.Fatal("no traces captured")
	}

	// Sharded dynamic: per-shard metrics slots.
	ds, err := NewDynamic(keys[:2000], 0.25, WithSeed(25), WithShards(2), WithTelemetry(TelemetryConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[2000:2200] {
		if _, err := ds.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	ds.Quiesce()
	if ok, err := ds.Contains(keys[0]); err != nil || !ok {
		t.Fatalf("sharded dynamic lost a key: %v %v", ok, err)
	}
	ss := ds.Telemetry().Snapshot()
	if len(ss.Dynamic) != 2 {
		t.Fatalf("sharded dynamic metrics = %+v", ss.Dynamic)
	}
	for i, dm := range ss.Dynamic {
		if dm.Rebuilds < 1 {
			t.Fatalf("shard %d rebuilds = %d, want ≥ 1 (initial build)", i, dm.Rebuilds)
		}
	}
}

// TestTelemetryDynamicWritesUncounted: the live probe counters measure
// reads, so write traffic cannot inflate probes per query. Claim walks and
// delta replays are counted on WriteProbes and the claim-probe metric. The
// telemetry is fed by per-call tallies alone: its tables stay unobserved
// (they hand out their cell view), and NewDynamic refuses a sampling factor
// above 1.
func TestTelemetryDynamicWritesUncounted(t *testing.T) {
	keys := testKeys(3000, 27)
	if _, err := NewDynamic(keys[:2000], 0.1, WithTelemetry(TelemetryConfig{Sample: 2})); err == nil {
		t.Fatal("NewDynamic accepted telemetry sample 2")
	}
	d, err := NewDynamic(keys[:2000], 0.1, WithSeed(27), WithTelemetry(TelemetryConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[2000:] {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:500] {
		if _, err := d.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	d.Quiesce()
	if d.shards.Shard(0).BaseTable().CellView() == nil || d.shards.Shard(0).BufferTable().CellView() == nil {
		t.Fatal("dynamic telemetry observes a table: cell view withheld")
	}
	s := d.Telemetry().Snapshot()
	if st := d.Stats(); st.WriteProbes == 0 || st.Epochs < 2 {
		t.Fatalf("writes did not run the claim path through rebuilds: %+v", st)
	}
	if s.Probes != 0 {
		t.Fatalf("%d write probes reached the read-probe counters", s.Probes)
	}
	if claims := s.Dynamic[0].ClaimProbes; claims == 0 {
		t.Fatalf("claim probes uncounted: %+v", s.Dynamic[0])
	}
}

// TestTelemetryRead: a deserialized dictionary accepts WithTelemetry like a
// built one.
func TestTelemetryRead(t *testing.T) {
	keys := testKeys(400, 26)
	d, err := New(keys, WithSeed(26))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rd, err := Read(&buf, WithSeed(26), WithTelemetry(TelemetryConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:50] {
		if !rd.Contains(k) {
			t.Fatalf("lost key %d after round-trip", k)
		}
	}
	if s := rd.Telemetry().Snapshot(); s.Queries != 50 || s.Probes == 0 {
		t.Fatalf("telemetry after Read: %+v", s)
	}
}

func TestWithTelemetryValidation(t *testing.T) {
	if _, err := New(testKeys(16, 27), WithTelemetry(TelemetryConfig{Sample: -1})); err == nil {
		t.Fatal("negative sample accepted")
	}
}

// TestTelemetrySampledEstimate: with 1-in-k query sampling the step counts
// stay exact and the per-cell counts, scaled back up by k, estimate the
// sampling-off truth. The drive answers every stored key once per pass and
// one hot key as often again, so the hottest cell (the hot key's data cell,
// Φ ≈ 1/2) is estimated from ≈4100 folded probes rather than from the
// extreme-value noise of thousands of equally cold cells. Tolerances: the
// scaled per-cell total within 5% of the exact probe count, and the scaled
// maxΦ̂·n within 10% of the unsampled twin's. The folded-query count is
// binomial with a relative spread of ≈1% (≈1.5% for the hot cell), and 40
// repeated runs read 1.003–1.032 and 0.99–1.04 against these bounds, while
// an estimate left unscaled reads 1/k of the truth.
func TestTelemetrySampledEstimate(t *testing.T) {
	keys := testKeys(2048, 28)
	const k = 8
	exact, err := New(keys, WithSeed(28), WithTelemetry(TelemetryConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	whole := telemetry.Range{Name: "table", Start: 0, Cells: exact.SpaceCells()}
	sampled, err := New(keys, WithSeed(28), WithTelemetry(TelemetryConfig{Sample: k, Ranges: []telemetry.Range{whole}}))
	if err != nil {
		t.Fatal(err)
	}
	hot := make([]uint64, len(keys))
	for i := range hot {
		hot[i] = keys[0]
	}
	out := make([]bool, len(keys))
	for p := 0; p < 16; p++ {
		for _, d := range []*Dict{exact, sampled} {
			for _, batch := range [][]uint64{keys, hot} {
				if err := d.ContainsBatch(batch, out); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	se, ss := exact.Telemetry().Snapshot(), sampled.Telemetry().Snapshot()
	if ss.Sample != k {
		t.Fatalf("Sample = %d, want %d", ss.Sample, k)
	}
	if ss.Probes != se.Probes || !slices.Equal(ss.StepMass, se.StepMass) {
		t.Fatalf("sampled step counts not exact: %d probes %v, exact %d %v", ss.Probes, ss.StepMass, se.Probes, se.StepMass)
	}
	if len(ss.Ranges) != 1 {
		t.Fatalf("ranges = %+v", ss.Ranges)
	}
	if ratio := float64(ss.Ranges[0].Probes) / float64(ss.Probes); math.Abs(ratio-1) > 0.05 {
		t.Fatalf("scaled per-cell total %d off by %.1f%% from the %d probes counted",
			ss.Ranges[0].Probes, 100*(ratio-1), ss.Probes)
	}
	if ratio := ss.MaxPhiN / se.MaxPhiN; math.Abs(ratio-1) > 0.10 || ss.MaxPhiCell != se.MaxPhiCell {
		t.Fatalf("scaled maxΦ̂·n %.1f at cell %d, unsampled %.1f at cell %d (ratio %.3f)",
			ss.MaxPhiN, ss.MaxPhiCell, se.MaxPhiN, se.MaxPhiCell, ratio)
	}
}

// TestTelemetryUniformSupport pins the acceptance workload's semantics: the
// round-robin drive realizes dist.NewUniformSet's support exactly, so the
// comparison in TestTelemetryAcceptance diffs like against like.
func TestTelemetryUniformSupport(t *testing.T) {
	keys := testKeys(64, 29)
	q := dist.NewUniformSet(keys, "")
	sup := q.Support()
	if len(sup) != len(keys) {
		t.Fatalf("support size %d, want %d", len(sup), len(keys))
	}
	for _, w := range sup {
		if math.Abs(w.P-1.0/float64(len(keys))) > 1e-15 {
			t.Fatalf("support weight %v, want uniform %v", w.P, 1.0/float64(len(keys)))
		}
	}
	_ = telemetry.Config{} // facade aliases stay interchangeable with the internal types
}

// TestTelemetryCompareExactWeighted closes the skewed-drive loop through the
// public facade: a Zipf(1.2) schedule drives the dictionary and the drift is
// computed under the schedule's realized weights, so the live and exact sides
// describe the same distribution and the ratios sit at 1 within sampling
// noise.
func TestTelemetryCompareExactWeighted(t *testing.T) {
	const n, passes = 2048, 32
	keys := testKeys(n, 42)
	d, err := New(keys, WithSeed(42), WithTelemetry(TelemetryConfig{Sample: 1}))
	if err != nil {
		t.Fatal(err)
	}
	drive, err := workload.NewScenario("zipf:1.2", keys, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < passes*drive.PassLen(); i++ {
		if !d.Contains(drive.Next().Key) {
			t.Fatal("lost key")
		}
	}
	support := make([]WeightedKey, 0, n)
	for _, w := range drive.Support() {
		support = append(support, WeightedKey{Key: w.Key, P: w.P})
	}
	drift, err := d.TelemetryCompareExactWeighted(support)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(drift.MaxPhiRatio-1) > 0.05 {
		t.Fatalf("skewed maxΦ̂ ratio %.4f outside [0.95, 1.05] (live %.4f exact %.4f)",
			drift.MaxPhiRatio, drift.MaxPhiLive, drift.MaxPhiExact)
	}
	if math.Abs(drift.ProbesRatio-1) > 1e-9 {
		t.Fatalf("skewed probes ratio %v, want exactly 1 (deterministic probe counts)", drift.ProbesRatio)
	}
	// The uniform-weights entry point agrees with the plain-keys one.
	du, err := d.TelemetryCompareExact(keys)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := d.TelemetryCompareExactWeighted(uniformWeights(keys))
	if err != nil {
		t.Fatal(err)
	}
	if du != dw {
		t.Fatalf("uniform drift mismatch: %+v vs %+v", du, dw)
	}
	// A degenerate support is rejected, not analyzed.
	if _, err := d.TelemetryCompareExactWeighted([]WeightedKey{{Key: keys[0], P: 0}}); err == nil {
		t.Fatal("zero-mass support accepted")
	}
}

// TestBatchDefaultSourceContention holds the default query source to the
// paper's contention model on batch spans. A batch takes one draw from the
// shared sharded source and draws every replica choice after that from its
// pooled scratch's own stream, so the shortest span (1-key batches, one
// shared draw per query) and a long one (1024-key batches) must both
// realize the exact per-cell distribution: live maxΦ̂·n within 5% of
// contention.Exact over a round-robin uniform drive, and exactly the
// analysed probes per query.
func TestBatchDefaultSourceContention(t *testing.T) {
	const n, passes = 2048, 32
	keys := testKeys(n, 44)
	for _, batch := range []int{1, 1024} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			d, err := New(keys, WithSeed(44), WithTelemetry(TelemetryConfig{Sample: 1}))
			if err != nil {
				t.Fatal(err)
			}
			out := make([]bool, batch)
			for p := 0; p < passes; p++ {
				for i := 0; i < n; i += batch {
					if err := d.ContainsBatch(keys[i:i+batch], out); err != nil {
						t.Fatal(err)
					}
					for j, ok := range out {
						if !ok {
							t.Fatalf("lost key %d", keys[i+j])
						}
					}
				}
			}
			drift, err := d.TelemetryCompareExact(keys)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(drift.MaxPhiRatio-1) > 0.05 {
				t.Fatalf("maxΦ̂ ratio %.4f outside [0.95, 1.05] (live %.4f exact %.4f)",
					drift.MaxPhiRatio, drift.MaxPhiLive, drift.MaxPhiExact)
			}
			if math.Abs(drift.ProbesRatio-1) > 1e-9 {
				t.Fatalf("probes ratio %v, want exactly 1 (live %.3f exact %.3f)",
					drift.ProbesRatio, drift.ProbesLive, drift.ProbesExact)
			}
		})
	}
}

// TestDynamicCompareExactBufferSteps is the regression test for the dynamic
// step-alignment fix: with an empty update buffer mid-epoch, the always-
// executed buffer probes land at steps past the static snapshot's MaxProbes,
// and the comparison previously diffed them against an exact analysis that
// never modeled them — reporting a spurious step-mass gap of ≈ 1.0 and an
// inflated probes ratio. Bounded to the static range, both signals read
// clean.
func TestDynamicCompareExactBufferSteps(t *testing.T) {
	const n, passes = 1024, 16
	keys := testKeys(n, 43)
	d, err := NewDynamic(keys, 0.25, WithSeed(43), WithTelemetry(TelemetryConfig{Sample: 1}))
	if err != nil {
		t.Fatal(err)
	}
	d.Quiesce()
	for p := 0; p < passes; p++ {
		for _, k := range keys {
			ok, err := d.Contains(k)
			if err != nil || !ok {
				t.Fatalf("lost key %d (%v)", k, err)
			}
		}
	}
	drift, err := d.TelemetryCompareExact(keys)
	if err != nil {
		t.Fatal(err)
	}
	if drift.StepMassMaxDiff > 0.02 {
		t.Fatalf("step-mass gap %.4f with an empty buffer, want ≈ 0 (the spurious-1.0 regression)",
			drift.StepMassMaxDiff)
	}
	if math.Abs(drift.ProbesRatio-1) > 0.05 {
		t.Fatalf("in-range probes ratio %.4f (live %.3f exact %.3f)",
			drift.ProbesRatio, drift.ProbesLive, drift.ProbesExact)
	}
	// The raw snapshot still sees the buffer probes — the comparison, not the
	// counters, is what the fix bounds.
	if snap := d.Telemetry().Snapshot(); snap.ProbesPerQuery <= drift.ProbesLive {
		t.Fatalf("whole-epoch probes/query %.3f not above in-range %.3f — buffer probes missing",
			snap.ProbesPerQuery, drift.ProbesLive)
	}
}
