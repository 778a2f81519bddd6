package lcds

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dynamic"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/workload"
)

// benchConfig scales the experiment suite for benchmarking. Set the
// LCDS_BENCH_FULL environment variable to run at the full sizes used for
// EXPERIMENTS.md; the default keeps `go test -bench=.` affordable.
func benchConfig() experiments.Config {
	if os.Getenv("LCDS_BENCH_FULL") != "" {
		return experiments.Default()
	}
	cfg := experiments.Default()
	cfg.Sizes = []int{512, 1024, 2048, 4096}
	cfg.FixedN = 2048
	cfg.Queries = 50000
	cfg.Procs = []int{1, 4, 16, 64}
	cfg.Trials = 10
	return cfg
}

// benchExperiment regenerates one experiment table per iteration. Run with
// -v to see the rendered table once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	cfg := benchConfig()
	var out io.Writer = io.Discard
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			out = os.Stderr
		}
		if err := tab.Render(out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// One benchmark per evaluation artifact (DESIGN.md §3).

// BenchmarkTableT1 regenerates T1 — Theorem 3's contention/time/space table.
func BenchmarkTableT1(b *testing.B) { benchExperiment(b, "T1") }

// BenchmarkTableT2 regenerates T2 — the §1.3 baseline comparison sweep.
func BenchmarkTableT2(b *testing.B) { benchExperiment(b, "T2") }

// BenchmarkTableT3 regenerates T3 — skewed query distributions.
func BenchmarkTableT3(b *testing.B) { benchExperiment(b, "T3") }

// BenchmarkTableT4 regenerates T4 — construction cost.
func BenchmarkTableT4(b *testing.B) { benchExperiment(b, "T4") }

// BenchmarkTableT5 regenerates T5 — Lemma 9 success rates.
func BenchmarkTableT5(b *testing.B) { benchExperiment(b, "T5") }

// BenchmarkFigureF1 regenerates F1 — per-cell contention profiles.
func BenchmarkFigureF1(b *testing.B) { benchExperiment(b, "F1") }

// BenchmarkFigureF2 regenerates F2 — hot-spot slowdown vs processors.
func BenchmarkFigureF2(b *testing.B) { benchExperiment(b, "F2") }

// BenchmarkFigureF3 regenerates F3 — the Theorem 13 t* growth series.
func BenchmarkFigureF3(b *testing.B) { benchExperiment(b, "F3") }

// BenchmarkFigureF4 regenerates F4 — Lemma 14/16 accounting on real specs.
func BenchmarkFigureF4(b *testing.B) { benchExperiment(b, "F4") }

// BenchmarkTableT6 regenerates T6 — absolute contention maxΦ·n.
func BenchmarkTableT6(b *testing.B) { benchExperiment(b, "T6") }

// BenchmarkTableX1 regenerates X1 — dynamic-extension update contention.
func BenchmarkTableX1(b *testing.B) { benchExperiment(b, "X1") }

// BenchmarkTableA1 regenerates A1 — space-factor ablation.
func BenchmarkTableA1(b *testing.B) { benchExperiment(b, "A1") }

// BenchmarkTableA2 regenerates A2 — independence-degree ablation.
func BenchmarkTableA2(b *testing.B) { benchExperiment(b, "A2") }

// BenchmarkTableA3 regenerates A3 — memory-bank ablation.
func BenchmarkTableA3(b *testing.B) { benchExperiment(b, "A3") }

// BenchmarkTableA4 regenerates A4 — replica-layout ablation.
func BenchmarkTableA4(b *testing.B) { benchExperiment(b, "A4") }

// BenchmarkTableA5 regenerates A5 — read-combining ablation.
func BenchmarkTableA5(b *testing.B) { benchExperiment(b, "A5") }

// BenchmarkTableA6 regenerates A6 — hash-family ablation.
func BenchmarkTableA6(b *testing.B) { benchExperiment(b, "A6") }

// BenchmarkTableA7 regenerates A7 — sharded contention composition.
func BenchmarkTableA7(b *testing.B) { benchExperiment(b, "A7") }

// BenchmarkTableA8 regenerates A8 — live telemetry vs exact analysis.
func BenchmarkTableA8(b *testing.B) { benchExperiment(b, "A8") }

// BenchmarkTableT7 regenerates T7 — uniform-negative query sweep.
func BenchmarkTableT7(b *testing.B) { benchExperiment(b, "T7") }

// BenchmarkFigureF5 regenerates F5 — open-system saturation curves.
func BenchmarkFigureF5(b *testing.B) { benchExperiment(b, "F5") }

// BenchmarkTableW1 regenerates W1 — realistic-workload contention.
func BenchmarkTableW1(b *testing.B) { benchExperiment(b, "W1") }

// BenchmarkTableX2 regenerates X2 — known-distribution skew repair.
func BenchmarkTableX2(b *testing.B) { benchExperiment(b, "X2") }

// BenchmarkTableP1 regenerates P1 — real-hardware goroutine scaling.
func BenchmarkTableP1(b *testing.B) { benchExperiment(b, "P1") }

// --- Real shared-memory benchmarks -----------------------------------------
//
// The cell-probe model's contention prediction should manifest as wall-clock
// scalability on actual hardware: structures whose queries converge on few
// cache lines (binary search root, plain hash parameters) bounce those lines
// between cores, while the low-contention dictionary's randomized replicas
// spread traffic. These benches issue membership queries from all procs via
// RunParallel with probe recording off.

const benchN = 1 << 14

func benchKeys(b *testing.B) []uint64 {
	b.Helper()
	return testKeys(benchN, 1)
}

// BenchmarkParallelLCDS measures concurrent membership queries on the
// low-contention dictionary.
func BenchmarkParallelLCDS(b *testing.B) {
	keys := benchKeys(b)
	d, err := New(keys, WithSeed(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(rand64())
		for pb.Next() {
			k := keys[r.Intn(len(keys))]
			ok, err := d.inner.Contains(k, r)
			if err != nil || !ok {
				b.Fail()
				return
			}
		}
	})
}

// BenchmarkParallelFKS measures concurrent queries on replicated FKS.
func BenchmarkParallelFKS(b *testing.B) {
	keys := benchKeys(b)
	d, err := baseline.BuildFKS(keys, true, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(rand64())
		for pb.Next() {
			k := keys[r.Intn(len(keys))]
			ok, err := d.Contains(k, r)
			if err != nil || !ok {
				b.Fail()
				return
			}
		}
	})
}

// BenchmarkParallelCuckoo measures concurrent queries on replicated cuckoo.
func BenchmarkParallelCuckoo(b *testing.B) {
	keys := benchKeys(b)
	d, err := baseline.BuildCuckoo(keys, true, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(rand64())
		for pb.Next() {
			k := keys[r.Intn(len(keys))]
			ok, err := d.Contains(k, r)
			if err != nil || !ok {
				b.Fail()
				return
			}
		}
	})
}

// BenchmarkParallelBinarySearch measures concurrent queries on the sorted
// array — the maximally contended baseline.
func BenchmarkParallelBinarySearch(b *testing.B) {
	keys := benchKeys(b)
	d, err := baseline.BuildBinarySearch(keys, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(rand64())
		for pb.Next() {
			k := keys[r.Intn(len(keys))]
			ok, err := d.Contains(k, r)
			if err != nil || !ok {
				b.Fail()
				return
			}
		}
	})
}

// BenchmarkPublicContains exercises the facade's per-call RNG derivation.
func BenchmarkPublicContains(b *testing.B) {
	keys := benchKeys(b)
	d, err := New(keys, WithSeed(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.Contains(keys[i%len(keys)]) {
			b.Fatal("lost key")
		}
	}
}

// benchContainsTelemetry is the shared body of the telemetry-overhead
// benchmark pair: the single-key facade path with the given extra options.
func benchContainsTelemetry(b *testing.B, extra ...Option) {
	b.Helper()
	keys := benchKeys(b)
	d, err := New(keys, append([]Option{WithSeed(3)}, extra...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.Contains(keys[i%len(keys)]) {
			b.Fatal("lost key")
		}
	}
}

// BenchmarkContainsTelemetryOff guards the telemetry-off overhead contract:
// no sink is installed, so this must track BenchmarkPublicContains within
// noise (< 3% vs the committed BENCH_*.json baseline) at 0 allocs/op.
func BenchmarkContainsTelemetryOff(b *testing.B) { benchContainsTelemetry(b) }

// BenchmarkContainsTelemetryOn measures the worst-case telemetry cost:
// every probe counted (sampling 1) on the striped per-cell and per-step
// vectors, plus latency/outcome accounting per query.
func BenchmarkContainsTelemetryOn(b *testing.B) {
	benchContainsTelemetry(b, WithTelemetry(TelemetryConfig{Sample: 1}))
}

// BenchmarkContainsTelemetrySampled measures the 1-in-64 sampling point —
// the configuration meant for always-on production telemetry.
func BenchmarkContainsTelemetrySampled(b *testing.B) {
	benchContainsTelemetry(b, WithTelemetry(TelemetryConfig{Sample: 64}))
}

// BenchmarkBuild measures construction throughput at the bench size.
func BenchmarkBuild(b *testing.B) {
	keys := benchKeys(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(keys, WithSeed(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildParallel races GOMAXPROCS independent hash draws per round
// during construction (WithParallelBuild). Deterministic per (seed, workers).
func BenchmarkBuildParallel(b *testing.B) {
	keys := benchKeys(b)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(keys, WithSeed(uint64(i+1)), WithParallelBuild(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContainsScratch measures the zero-allocation core fast path: an
// explicit QueryScratch and a sequential RNG, no pools. Expect 0 allocs/op.
func BenchmarkContainsScratch(b *testing.B) {
	keys := benchKeys(b)
	d, err := New(keys, WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	sc := new(core.QueryScratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := d.inner.ContainsScratch(keys[i%len(keys)], r, sc)
		if err != nil || !ok {
			b.Fatal("lost key")
		}
	}
}

// BenchmarkContainsBatch measures the facade batch path — the wavefront
// scheduler that keeps BatchGroup probe chains in flight behind software
// prefetches — across batch sizes: small batches barely fill the wavefront,
// large ones show its steady state. Queries cycle the stored keys when the
// batch exceeds the key count. Expect 0 allocs per batch.
func BenchmarkContainsBatch(b *testing.B) {
	keys := benchKeys(b)
	d, err := New(keys, WithSeed(8))
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{64, 1024, 32768} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			qs := make([]uint64, batch)
			for i := range qs {
				qs[i] = keys[i%len(keys)]
			}
			out := make([]bool, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.ContainsBatch(qs, out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Per-key figure: divide ns/op by the batch size.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/key")
		})
	}
}

// BenchmarkContainsBatchSize separates the static batch path's compute from
// its memory stalls: the same 1024-key batches of uniformly drawn members on
// a table small enough to stay in L2 (n=512, 0.4 MiB) and on lcds-server's
// 26 MiB table (n=32768). The gap between the two ns/key figures is what
// the cache and TLB misses cost; the small table's figure is the work per
// key itself.
func BenchmarkContainsBatchSize(b *testing.B) {
	const batch, batches = 1024, 64
	for _, n := range []int{512, 32768} {
		keys := testKeys(n, 15)
		r := rng.New(16)
		qs := make([]uint64, batch*batches)
		for i := range qs {
			qs[i] = keys[r.Intn(n)]
		}
		d, err := New(keys, WithSeed(15))
		if err != nil {
			b.Fatal(err)
		}
		out := make([]bool, batch)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if err := d.ContainsBatch(qs[:batch], out); err != nil { // warm the scratch pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % batches * batch
				if err := d.ContainsBatch(qs[j:j+batch], out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, ok := range out {
				if !ok {
					b.Fatal("lost key")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/key")
		})
	}
}

// BenchmarkDynamicContainsBatchSource prices the query source on the dynamic
// batch path lcds-server's /batch runs: n=32768, 1024 uniformly drawn member
// keys per batch, Sample-1 telemetry. source=default is the sharded source
// (one shared draw per batch, then the pooled scratch's own stream);
// source=rng is an explicit *rng.RNG, the single-goroutine reference. The gap
// between the two is what the default source costs a batch.
func BenchmarkDynamicContainsBatchSource(b *testing.B) {
	const n, batch, batches = 32768, 1024, 64
	keys := testKeys(n, 12)
	r := rng.New(13)
	qs := make([]uint64, batch*batches)
	for i := range qs {
		qs[i] = keys[r.Intn(n)]
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"rng", []Option{WithQuerySource(rng.New(14))}},
	} {
		b.Run("source="+tc.name, func(b *testing.B) {
			opts := append([]Option{WithSeed(12), WithTelemetry(TelemetryConfig{Sample: 1})}, tc.opts...)
			d, err := NewDynamic(keys, 0.25, opts...)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]bool, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % batches * batch
				if err := d.ContainsBatch(qs[j:j+batch], out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, ok := range out {
				if !ok {
					b.Fatal("lost key")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/key")
		})
	}
}

// BenchmarkContainsBatchGroup sweeps the wavefront width G at a fixed batch
// size, bracketing the default (8): G=1 is the scalar query-at-a-time
// reference, and the curve flattens once G covers the core's memory-level
// parallelism. Answers are identical at every width by contract.
func BenchmarkContainsBatchGroup(b *testing.B) {
	keys := benchKeys(b)
	const batch = 1024
	out := make([]bool, batch)
	for _, g := range []int{1, 4, 8, 16} {
		d, err := New(keys, WithSeed(8), WithBatchGroup(g))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("G=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.ContainsBatch(keys[:batch], out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/key")
		})
	}
}

// BenchmarkExactContention compares the serial and parallel exact contention
// analyses; the parallel run is bit-identical to the serial one by contract.
func BenchmarkExactContention(b *testing.B) {
	keys := benchKeys(b)
	d, err := New(keys, WithSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	support := dist.NewUniformSet(keys, "").Support()
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := contention.ExactWorkers(d.inner, support, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Goroutine-count scaling benchmarks ------------------------------------
//
// The refactor removed every shared mutable word from the read path: the
// facade draws query randomness from a sharded source and the dynamic
// dictionary publishes immutable epoch snapshots. These benchmarks pin the
// goroutine count explicitly (1, 4, GOMAXPROCS) so a scaling regression —
// per-op time growing with goroutines — is visible at a glance.

func benchGoroutineCounts() []int {
	counts := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		counts = append(counts, g)
	}
	return counts
}

// runFanOut splits b.N across g goroutines, each running loop(seed, n).
func runFanOut(b *testing.B, g int, loop func(seed uint64, n int)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		n := b.N / g
		if i == 0 {
			n += b.N % g
		}
		wg.Add(1)
		go func(seed uint64, n int) {
			defer wg.Done()
			loop(seed, n)
		}(rand64(), n)
	}
	wg.Wait()
}

// BenchmarkStaticContainsGoroutines queries a static Dict through the public
// facade at fixed goroutine counts.
func BenchmarkStaticContainsGoroutines(b *testing.B) {
	keys := benchKeys(b)
	d, err := New(keys, WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range benchGoroutineCounts() {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			runFanOut(b, g, func(seed uint64, n int) {
				r := rng.New(seed)
				for i := 0; i < n; i++ {
					if !d.Contains(keys[r.Intn(len(keys))]) {
						b.Error("lost key")
						return
					}
				}
			})
		})
	}
}

// BenchmarkDynamicMixGoroutines drives the dynamic facade with read/write
// mixes at fixed goroutine counts. Reads are lock-free epoch loads and
// writers claim buffer slots with CAS, so both sides of the mix should scale
// with goroutines until rebuild work or CAS retries on hot slots bite.
func BenchmarkDynamicMixGoroutines(b *testing.B) {
	keys := testKeys(benchN+benchN/2, 4)
	resident, extra := keys[:benchN], keys[benchN:]
	for _, mix := range []struct {
		name   string
		writes int // percent of ops that mutate
	}{{"reads", 0}, {"mix90r10w", 10}, {"mix50r50w", 50}} {
		for _, g := range benchGoroutineCounts() {
			b.Run(fmt.Sprintf("%s/g=%d", mix.name, g), func(b *testing.B) {
				d, err := NewDynamic(resident, 0.5, WithSeed(6))
				if err != nil {
					b.Fatal(err)
				}
				runFanOut(b, g, func(seed uint64, n int) {
					r := rng.New(seed)
					for i := 0; i < n; i++ {
						if r.Intn(100) < mix.writes {
							k := extra[r.Intn(len(extra))]
							var err error
							if r.Intn(2) == 0 {
								_, err = d.Insert(k)
							} else {
								_, err = d.Delete(k)
							}
							if err != nil {
								b.Error(err)
								return
							}
						} else if ok, err := d.Contains(resident[r.Intn(len(resident))]); err != nil || !ok {
							b.Errorf("resident key lookup: ok=%v err=%v", ok, err)
							return
						}
					}
				})
				b.StopTimer()
				d.Quiesce()
			})
		}
	}
}

// BenchmarkDynamicWriterScaling is the pure update-path scaling story: every
// goroutine is a writer churning insert/delete over a shared key pool, no
// reads at all. With the mutex gone from the claim fast path, throughput at
// g=4 should clearly exceed g=1 on a multi-core machine; CAS retries and
// epoch-transition serialization are the only remaining writer coupling.
func BenchmarkDynamicWriterScaling(b *testing.B) {
	keys := testKeys(benchN*2, 7)
	resident, churn := keys[:benchN], keys[benchN:]
	for _, g := range benchGoroutineCounts() {
		b.Run(fmt.Sprintf("writers=%d", g), func(b *testing.B) {
			d, err := NewDynamic(resident, 0.5, WithSeed(8))
			if err != nil {
				b.Fatal(err)
			}
			runFanOut(b, g, func(seed uint64, n int) {
				r := rng.New(seed)
				for i := 0; i < n; i++ {
					k := churn[r.Intn(len(churn))]
					var err error
					if r.Intn(2) == 0 {
						_, err = d.Insert(k)
					} else {
						_, err = d.Delete(k)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			d.Quiesce()
		})
	}
	// Hot-set variants: the same pure-writer storm, but 90% of the churn
	// lands on a rotating 8-key point mass — the workload where CAS claims
	// collide hardest; the benchmark form of the mixed_hot_* BENCH fields.
	for _, g := range benchGoroutineCounts() {
		b.Run(fmt.Sprintf("hot/writers=%d", g), func(b *testing.B) {
			d, err := NewDynamic(resident, 0.5, WithSeed(8))
			if err != nil {
				b.Fatal(err)
			}
			drive, err := workload.NewScenario("rotating:8:16384", churn, 9)
			if err != nil {
				b.Fatal(err)
			}
			runFanOut(b, g, func(seed uint64, n int) {
				r := rng.New(seed)
				for i := 0; i < n; i++ {
					k := drive.Next().Key
					var err error
					if r.Intn(2) == 0 {
						_, err = d.Insert(k)
					} else {
						_, err = d.Delete(k)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			d.Quiesce()
		})
	}
}

// --- Sharding benchmarks ----------------------------------------------------
//
// WithShards(p) trades one extra routing probe per query for scale-out: batch
// queries fan out one goroutine per shard, and each dynamic shard rebuilds
// ε·(n/p) keys instead of ε·n. The first benchmark shows batch throughput
// against the shard count, the second the rebuild pause an insert stream
// absorbs (inline rebuilds, so the cost lands on the measured goroutine
// instead of racing a background worker).

// BenchmarkShardedBatch measures facade ContainsBatch throughput as the shard
// count grows. shards=1 is the unsharded single-goroutine batch path; p ≥ 2
// answers per-shard groups concurrently.
func BenchmarkShardedBatch(b *testing.B) {
	keys := benchKeys(b)
	const batch = 4096
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			d, err := New(keys, WithSeed(10), WithShards(p))
			if err != nil {
				b.Fatal(err)
			}
			out := make([]bool, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.ContainsBatch(keys[:batch], out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/key")
		})
	}
}

// BenchmarkShardedRebuildPause measures an insert stream against the dynamic
// dictionary with rebuilds run inline (SyncRebuild), so every rebuild's full
// pause is charged to the inserting goroutine. Sharding divides each pause:
// a rebuild re-keys one shard's ε·(n/p) keys, not ε·n.
func BenchmarkShardedRebuildPause(b *testing.B) {
	keys := testKeys(benchN+benchN, 11)
	resident, extra := keys[:benchN], keys[benchN:]
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			var d *dynamic.Dict
			var sd *shard.DynamicDict
			params := dynamic.Params{SyncRebuild: true}
			var err error
			if p == 1 {
				d, err = dynamic.New(resident, params, 12)
			} else {
				sd, err = shard.NewDynamic(resident, p, params, 12)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := extra[i%len(extra)]
				if i/len(extra)%2 == 0 {
					if p == 1 {
						_, err = d.Insert(k)
					} else {
						_, err = sd.Insert(k)
					}
				} else {
					if p == 1 {
						_, err = d.Delete(k)
					} else {
						_, err = sd.Delete(k)
					}
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchSeedCtr atomic.Uint64

// rand64 yields distinct seeds for parallel bench goroutines.
func rand64() uint64 {
	s := benchSeedCtr.Add(1) * 0x9e3779b97f4a7c15
	return rng.SplitMix64(&s)
}
