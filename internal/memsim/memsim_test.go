package memsim

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hash"
	"repro/internal/rng"
)

func TestSingleProcessorNoSlowdown(t *testing.T) {
	res := Run([][]int{{1, 2, 3, 4}}, Config{})
	if res.Makespan != 4 || res.IdealSpan != 4 {
		t.Errorf("makespan %d ideal %d, want 4/4", res.Makespan, res.IdealSpan)
	}
	if res.Slowdown() != 1 {
		t.Errorf("slowdown %v", res.Slowdown())
	}
	if res.AvgLatency != 1 {
		t.Errorf("latency %v, want 1", res.AvgLatency)
	}
}

func TestDisjointProcessorsParallel(t *testing.T) {
	seqs := [][]int{{0, 1, 2}, {10, 11, 12}, {20, 21, 22}}
	res := Run(seqs, Config{})
	if res.Makespan != 3 {
		t.Errorf("makespan %d, want 3", res.Makespan)
	}
	if res.Slowdown() != 1 {
		t.Errorf("slowdown %v, want 1", res.Slowdown())
	}
}

func TestHotCellSerializes(t *testing.T) {
	const m = 8
	seqs := make([][]int, m)
	for p := range seqs {
		seqs[p] = []int{42} // everyone probes the same cell
	}
	res := Run(seqs, Config{})
	if res.Makespan != m {
		t.Errorf("makespan %d, want %d (full serialization)", res.Makespan, m)
	}
	if res.MaxQueue != m {
		t.Errorf("max queue %d, want %d", res.MaxQueue, m)
	}
	if res.MaxModuleLoad != m {
		t.Errorf("max module load %d, want %d", res.MaxModuleLoad, m)
	}
	// Latencies 1, 2, ..., m; average (m+1)/2.
	if want := float64(m+1) / 2; res.AvgLatency != want {
		t.Errorf("latency %v, want %v", res.AvgLatency, want)
	}
}

func TestConservation(t *testing.T) {
	r := rng.New(1)
	seqs := make([][]int, 20)
	total := 0
	for p := range seqs {
		l := r.Intn(10)
		seqs[p] = make([]int, l)
		for i := range seqs[p] {
			seqs[p][i] = r.Intn(50)
		}
		total += l
	}
	res := Run(seqs, Config{})
	if res.TotalProbes != total {
		t.Errorf("TotalProbes %d, want %d", res.TotalProbes, total)
	}
	if res.Makespan < res.IdealSpan {
		t.Errorf("makespan %d below ideal %d", res.Makespan, res.IdealSpan)
	}
	if res.Makespan > total {
		t.Errorf("makespan %d exceeds total probes %d", res.Makespan, total)
	}
}

func TestEmptyInputs(t *testing.T) {
	res := Run(nil, Config{})
	if res.Makespan != 0 || res.Slowdown() != 1 {
		t.Errorf("empty run: %+v", res)
	}
	res = Run([][]int{{}, {}}, Config{})
	if res.Makespan != 0 || res.TotalProbes != 0 {
		t.Errorf("empty sequences: %+v", res)
	}
}

func TestDeterministic(t *testing.T) {
	r := rng.New(2)
	seqs := make([][]int, 30)
	for p := range seqs {
		seqs[p] = make([]int, 5)
		for i := range seqs[p] {
			seqs[p][i] = r.Intn(10)
		}
	}
	a := Run(seqs, Config{})
	b := Run(seqs, Config{})
	if a != b {
		t.Errorf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestModuleInterleaving(t *testing.T) {
	// Cells 0 and 4 share module 0 when Modules = 4.
	seqs := [][]int{{0}, {4}}
	res := Run(seqs, Config{Modules: 4})
	if res.Makespan != 2 {
		t.Errorf("interleaved makespan %d, want 2", res.Makespan)
	}
	res = Run(seqs, Config{}) // cell-per-module: no conflict
	if res.Makespan != 1 {
		t.Errorf("cell-per-module makespan %d, want 1", res.Makespan)
	}
}

func TestCombiningCollapsesSameCellRequests(t *testing.T) {
	const m = 8
	seqs := make([][]int, m)
	for p := range seqs {
		seqs[p] = []int{42}
	}
	res := Run(seqs, Config{Combining: true})
	if res.Makespan != 1 {
		t.Errorf("combined makespan %d, want 1", res.Makespan)
	}
	// Different cells on the same module must still serialize.
	seqs = [][]int{{0}, {4}, {8}}
	res = Run(seqs, Config{Modules: 4, Combining: true})
	if res.Makespan != 3 {
		t.Errorf("distinct-cell makespan %d, want 3", res.Makespan)
	}
	// Same cell on a shared module combines.
	seqs = [][]int{{0}, {0}, {4}}
	res = Run(seqs, Config{Modules: 4, Combining: true})
	if res.Makespan != 2 {
		t.Errorf("mixed makespan %d, want 2", res.Makespan)
	}
}

func TestCombiningNeverSlower(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		seqs := make([][]int, 12)
		for p := range seqs {
			seqs[p] = make([]int, 1+r.Intn(6))
			for i := range seqs[p] {
				seqs[p][i] = r.Intn(8)
			}
		}
		plain := Run(seqs, Config{})
		combined := Run(seqs, Config{Combining: true})
		if combined.Makespan > plain.Makespan {
			t.Fatalf("trial %d: combining slower (%d > %d)", trial, combined.Makespan, plain.Makespan)
		}
		if combined.TotalProbes != plain.TotalProbes {
			t.Fatalf("trial %d: probe conservation broken", trial)
		}
	}
}

// TestCombiningRescuesBinarySearch: combining is the classic fix for the
// §1 hot spot — with it, the root broadcast completes in one cycle, so
// binary search parallelizes; the low-contention dictionary achieves the
// same without any combining hardware.
func TestCombiningRescuesBinarySearch(t *testing.T) {
	r := rng.New(8)
	keys := distinctKeys(r, 512)
	bs, err := baseline.BuildBinarySearch(keys, 7)
	if err != nil {
		t.Fatal(err)
	}
	q := dist.NewUniformSet(keys, "")
	seqs, err := Sequences(bs, q, 128, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	plain := Run(seqs, Config{})
	combined := Run(seqs, Config{Combining: true})
	if combined.Slowdown() > plain.Slowdown()/3 {
		t.Errorf("combining did not rescue bsearch: %.2f vs %.2f", combined.Slowdown(), plain.Slowdown())
	}
}

func TestPipelinedHotCell(t *testing.T) {
	// Two processors, each probing the hot cell then a private cell: the
	// loser of cycle 0 retries the hot cell in cycle 1, finishing at 3.
	seqs := [][]int{{7, 100}, {7, 200}}
	res := Run(seqs, Config{})
	if res.Makespan != 3 {
		t.Errorf("makespan %d, want 3", res.Makespan)
	}
}

func distinctKeys(r *rng.RNG, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := r.Uint64n(hash.MaxKey)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func TestSequencesCaptureProbes(t *testing.T) {
	r := rng.New(3)
	keys := distinctKeys(r, 200)
	lc, err := core.Build(keys, core.Params{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := dist.NewUniformSet(keys, "")
	seqs, err := Sequences(lc, q, 50, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 50 {
		t.Fatalf("got %d sequences", len(seqs))
	}
	for p, s := range seqs {
		// Positive queries always reach the data probe.
		if len(s) != lc.MaxProbes() {
			t.Errorf("proc %d: %d probes, want %d", p, len(s), lc.MaxProbes())
		}
		for _, cell := range s {
			if cell < 0 || cell >= lc.Table().Size() {
				t.Fatalf("probe outside table: %d", cell)
			}
		}
	}
}

// TestBinarySearchSerializesLCDSDoesNot is the F2 story at miniature scale:
// simultaneous membership queries serialize on binary search's root cell but
// spread across the low-contention dictionary's replicas.
func TestBinarySearchSerializesLCDSDoesNot(t *testing.T) {
	r := rng.New(6)
	keys := distinctKeys(r, 512)
	lc, err := core.Build(keys, core.Params{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := baseline.BuildBinarySearch(keys, 7)
	if err != nil {
		t.Fatal(err)
	}
	q := dist.NewUniformSet(keys, "")
	const procs = 64

	lcSeqs, err := Sequences(lc, q, procs, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	bsSeqs, err := Sequences(bs, q, procs, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	lcRes := Run(lcSeqs, Config{})
	bsRes := Run(bsSeqs, Config{})
	t.Logf("lcds slowdown %.2f, bsearch slowdown %.2f", lcRes.Slowdown(), bsRes.Slowdown())
	if lcRes.Slowdown() > 3 {
		t.Errorf("lcds slowdown %.2f too high for %d processors", lcRes.Slowdown(), procs)
	}
	// Binary search serializes on the root: makespan ≥ procs.
	if bsRes.Makespan < procs {
		t.Errorf("bsearch makespan %d, want ≥ %d", bsRes.Makespan, procs)
	}
	if bsRes.Slowdown() < 4*lcRes.Slowdown() {
		t.Errorf("expected clear separation: bsearch %.2f vs lcds %.2f", bsRes.Slowdown(), lcRes.Slowdown())
	}
}

func TestRunOpenValidation(t *testing.T) {
	if _, err := RunOpen([][]int{{1}}, nil, Config{}); err == nil {
		t.Error("mismatched arrivals accepted")
	}
	if _, err := RunOpen([][]int{{1}}, []int{-1}, Config{}); err == nil {
		t.Error("negative arrival accepted")
	}
}

func TestRunOpenSequentialArrivals(t *testing.T) {
	// Two queries to the same cell, arriving 10 cycles apart: no queueing,
	// each completes in one cycle.
	seqs := [][]int{{5}, {5}}
	res, err := RunOpen(seqs, []int{0, 10}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency != 1 {
		t.Errorf("AvgLatency = %v, want 1", res.AvgLatency)
	}
	if res.Makespan != 11 {
		t.Errorf("Makespan = %v, want 11", res.Makespan)
	}
	// Same two queries arriving together: the second waits a cycle.
	res, err = RunOpen(seqs, []int{0, 0}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency != 1.5 {
		t.Errorf("simultaneous AvgLatency = %v, want 1.5", res.AvgLatency)
	}
	if res.MaxLatency != 2 {
		t.Errorf("MaxLatency = %v, want 2", res.MaxLatency)
	}
}

func TestRunOpenSaturation(t *testing.T) {
	// A hot cell served once per cycle saturates at throughput 1: with 2
	// arrivals per cycle the queue — and latency — grows linearly.
	const q = 100
	seqs := make([][]int, q)
	arrivals := make([]int, q)
	for i := range seqs {
		seqs[i] = []int{7}
		arrivals[i] = i / 2 // 2 per cycle
	}
	res, err := RunOpen(seqs, arrivals, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput > 1.01 {
		t.Errorf("throughput %v exceeds the single-cell service rate", res.Throughput)
	}
	if res.MaxLatency < q/4 {
		t.Errorf("MaxLatency %v does not show queue growth", res.MaxLatency)
	}
	// At 1 arrival per 2 cycles, the system is underloaded: latency stays 1.
	for i := range arrivals {
		arrivals[i] = 2 * i
	}
	res, err = RunOpen(seqs, arrivals, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency != 1 {
		t.Errorf("underloaded AvgLatency = %v, want 1", res.AvgLatency)
	}
}

func TestRunOpenPercentiles(t *testing.T) {
	// 100 queries to one cell arriving together: latencies 1..100.
	const q = 100
	seqs := make([][]int, q)
	arrivals := make([]int, q)
	for i := range seqs {
		seqs[i] = []int{3}
	}
	res, err := RunOpen(seqs, arrivals, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.P50Latency != 51 {
		t.Errorf("P50 = %d, want 51", res.P50Latency)
	}
	if res.P99Latency != 100 {
		t.Errorf("P99 = %d, want 100", res.P99Latency)
	}
	if res.MaxLatency != 100 {
		t.Errorf("Max = %d, want 100", res.MaxLatency)
	}
}

func TestRunOpenEmptySequences(t *testing.T) {
	res, err := RunOpen([][]int{{}, {1}}, []int{0, 3}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency != 1 {
		t.Errorf("AvgLatency = %v", res.AvgLatency)
	}
}

func BenchmarkRun64x13(b *testing.B) {
	r := rng.New(1)
	seqs := make([][]int, 64)
	for p := range seqs {
		seqs[p] = make([]int, 13)
		for i := range seqs[p] {
			seqs[p][i] = r.Intn(4096)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(seqs, Config{})
	}
}
