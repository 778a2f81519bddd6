package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/workload"

	lcds "repro"
)

// perfReport is the machine-readable record the -json mode writes, one
// BENCH_<date>.json per run. CI gates on ratios within one record; the
// repository's end-to-end benchmark is perfbench/.
type perfReport struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	N          int    `json:"n"`
	// QueryN is the key count of the query-path dictionary the contains_*,
	// batch_* and telemetry fields are timed on: max(n, 32768), so its
	// table leaves the cache and the CI gate batch ≤ scalar compares two
	// memory-bound loops rather than two cache-resident ones.
	QueryN int    `json:"query_n"`
	Seed   uint64 `json:"seed"`

	BuildMs float64 `json:"build_ms"`

	ContainsNsPerOp     float64 `json:"contains_ns_per_op"`
	ContainsAllocsPerOp float64 `json:"contains_allocs_per_op"`

	// Flight-recorder overhead: the same Contains loop against a dictionary
	// built with WithEventLog only. The recorder hangs off the write and
	// rebuild paths, never the query path, so the acceptance contract
	// (gated in CI via the ratio below) is ≤ 1.05× the uninstrumented
	// number with 0 allocs/op — both loops are timed in the same alternated
	// rounds and report their median round (gateRounds), and the ratio is
	// the median of the per-round ratios, so it measures the code path, not
	// scheduler noise.
	ContainsEventlogNsPerOp float64 `json:"contains_eventlog_ns_per_op"`
	ContainsEventlogAllocs  float64 `json:"contains_eventlog_allocs_per_op"`
	EventlogOverheadRatio   float64 `json:"eventlog_overhead_ratio"`

	// Batch query path: the scalar reference (wavefront width 1 —
	// query-at-a-time, comparable with historical records) and the
	// memory-level-parallel default, which keeps batch_group probe chains
	// in flight behind software prefetches.
	BatchContainsNsPerOp    float64 `json:"batch_contains_ns_per_op"`
	BatchGroup              int     `json:"batch_group"`
	BatchContainsMlpNsPerOp float64 `json:"batch_contains_mlp_ns_per_op"`
	BatchSpeedupVsScalar    float64 `json:"batch_speedup_vs_scalar"`

	// Dynamic batch path with Sample-1 telemetry against the same loop
	// without it, per key answered, each side the median of gateRounds
	// alternated rounds and the ratio the median per-round ratio. A dynamic
	// dictionary tallies a batch's probes in pooled scratch and flushes them
	// once per batch, so the ratio is CI-gated at ≤ 1.15.
	DynamicBatchNsPerKey          float64 `json:"dynamic_batch_ns_per_key"`
	DynamicBatchTelemetryNsPerKey float64 `json:"dynamic_batch_telemetry_ns_per_key"`
	DynamicBatchTelemetryRatio    float64 `json:"dynamic_batch_telemetry_ratio"`

	// Dynamic update path: sequential insert latency (rebuilds amortized in),
	// then the 80/10/10 Contains/Insert/Delete mixed workload at 1, 4 and
	// GOMAXPROCS worker goroutines. The writer-scaling headline is
	// mixed_w4_ops_per_sec / mixed_w1_ops_per_sec — on a single-core runner
	// the ratio is honestly ~1 (GOMAXPROCS is recorded above for exactly
	// that reason).
	InsertNsPerOp      float64 `json:"insert_ns_per_op"`
	MixedW1OpsPerSec   float64 `json:"mixed_w1_ops_per_sec"`
	MixedW4OpsPerSec   float64 `json:"mixed_w4_ops_per_sec"`
	MixedWMaxOpsPerSec float64 `json:"mixed_wmax_ops_per_sec"`
	MixedWMaxWriters   int     `json:"mixed_wmax_writers"`

	// Rotating-hot-set write storm: pure insert/delete churn with 90% of
	// the ops on a rotating 8-key point mass, at the same writer counts.
	// Every write of a key reuses that key's one buffer slot, so hot-key
	// churn costs no more than the uniform mixed storm above.
	// mixed_hot_cas_retries sums the claim-CAS races lost over the runs.
	MixedHotW1OpsPerSec   float64 `json:"mixed_hot_w1_ops_per_sec"`
	MixedHotW4OpsPerSec   float64 `json:"mixed_hot_w4_ops_per_sec"`
	MixedHotWMaxOpsPerSec float64 `json:"mixed_hot_wmax_ops_per_sec"`
	MixedHotCASRetries    uint64  `json:"mixed_hot_cas_retries"`

	// Telemetry overhead, measured only when -telemetry k is given: the
	// same Contains loop against a dictionary built with
	// WithTelemetry(Sample: k), timed in the plain loop's alternated rounds,
	// and its ratio to the uninstrumented number.
	TelemetrySample          int     `json:"telemetry_sample,omitempty"`
	ContainsTelemetryNsPerOp float64 `json:"contains_telemetry_ns_per_op,omitempty"`
	ContainsTelemetryAllocs  float64 `json:"contains_telemetry_allocs_per_op,omitempty"`
	TelemetryOverheadRatio   float64 `json:"telemetry_overhead_ratio,omitempty"`
	TelemetryMaxPhiN         float64 `json:"telemetry_max_phi_n,omitempty"`
	TelemetryProbesPerQuery  float64 `json:"telemetry_probes_per_query,omitempty"`

	ExactSerialMs   float64 `json:"exact_contention_serial_ms"`
	ExactParallelMs float64 `json:"exact_contention_parallel_ms"`
	ExactSpeedup    float64 `json:"exact_contention_speedup"`
	ExactWorkers    int     `json:"exact_contention_workers"`
	MaxPhiTimesS    float64 `json:"max_phi_times_s"`
}

// minQueryN is the smallest query-path dictionary the suite times.
const minQueryN = 32768

// gateRounds is how many alternated rounds time each CI-gated figure, and
// roundOps how many queries one round of a loop answers. Every round times
// each loop of a group once, and each figure is its median round: both
// sides of a gate see the same machine state, and no single noisy round
// moves either.
const (
	gateRounds = 31
	roundOps   = 1 << 15
)

// loopTimer times one pass of a measured loop into a report field.
type loopTimer struct {
	into *float64
	time func() (float64, error)
}

// timeAlternated runs gateRounds rounds of the timers, odd rounds in
// reverse order so that a drift in machine speed during the run charges
// every timer alike, stores each timer's median round, and returns every
// timer's rounds. A non-nil setup runs before every round.
func timeAlternated(setup func(round int) error, timers []loopTimer) ([][]float64, error) {
	rounds := make([][]float64, len(timers))
	for round := 0; round < gateRounds; round++ {
		if setup != nil {
			if err := setup(round); err != nil {
				return nil, err
			}
		}
		for k := range timers {
			i := k
			if round%2 == 1 {
				i = len(timers) - 1 - k
			}
			ns, err := timers[i].time()
			if err != nil {
				return nil, err
			}
			rounds[i] = append(rounds[i], ns)
		}
	}
	for i, m := range timers {
		*m.into = median(slices.Clone(rounds[i]))
	}
	return rounds, nil
}

// medianRatio is the median over rounds of num/den: each round's two loops
// ran back to back, so the ratio cancels what the machine did between
// rounds. The CI gates compare loops through these ratios.
func medianRatio(num, den []float64) float64 {
	r := make([]float64, len(num))
	for i := range num {
		r[i] = num[i] / den[i]
	}
	return median(r)
}

func median(v []float64) float64 {
	slices.Sort(v)
	return v[len(v)/2]
}

// runPerfSuite measures the perf-critical paths at key count n and writes
// the JSON record. seed 0 selects the default seed 1. telemetrySample > 0
// additionally measures the query path with live telemetry at that
// sampling rate, so the record tracks the instrumentation overhead.
func runPerfSuite(n int, seed uint64, outPath string, telemetrySample int) error {
	if seed == 0 {
		seed = 1
	}
	workers := runtime.GOMAXPROCS(0)
	rep := perfReport{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: workers,
		N:          n,
		Seed:       seed,
	}
	// The query path is timed over its own prefix-stable key set of
	// QueryN ≥ minQueryN keys, whose table leaves the cache; construction
	// and the dynamic paths below use the first n.
	rep.QueryN = max(n, minQueryN)
	r := rng.New(seed)
	qkeys := make([]uint64, 0, rep.QueryN)
	seen := make(map[uint64]bool, rep.QueryN)
	for len(qkeys) < rep.QueryN {
		k := r.Uint64n(lcds.MaxKey)
		if !seen[k] {
			seen[k] = true
			qkeys = append(qkeys, k)
		}
	}
	keys := qkeys[:n]

	// Construction.
	start := time.Now()
	if _, err := lcds.New(keys, lcds.WithSeed(seed)); err != nil {
		return err
	}
	rep.BuildMs = msSince(start)

	// The query-path dictionaries, all from the same seed over the same
	// keys, so every loop probes the same table: plain, with the flight
	// recorder armed (it observes writes and rebuilds only, so its loop is
	// the CI-gated proof the query path stayed untouched), and with a
	// width-1 wavefront, which answers one query at a time and keeps
	// batch_contains_ns_per_op comparable with records from before the
	// scheduler existed. The plain and flight-recorder twins are rebuilt
	// before every timing round, in alternating order: two identical tables
	// can read 10% apart for the life of a process (their arenas land on
	// different pages), and fresh twins each round turn that placement into
	// noise the median absorbs.
	var d, de *lcds.Dict
	twins := func(round int) error {
		d, de = nil, nil
		var err error
		for i := range 2 {
			if (i+round)%2 == 0 {
				d, err = lcds.New(qkeys, lcds.WithSeed(seed))
			} else {
				de, err = lcds.New(qkeys, lcds.WithSeed(seed), lcds.WithEventLog())
			}
			if err != nil {
				return err
			}
		}
		runtime.GC() // collect the previous twins before the loops, not during
		for _, t := range []*lcds.Dict{d, de} {
			if _, err := containsNsPerOp(t, qkeys, roundOps); err != nil { // warm, untimed
				return err
			}
		}
		return nil
	}
	d1, err := lcds.New(qkeys, lcds.WithSeed(seed), lcds.WithBatchGroup(1))
	if err != nil {
		return err
	}

	// Every CI-gated pair (batch wavefront vs scalar Contains, flight
	// recorder vs plain) and the telemetry loop are timed in the same
	// alternated rounds (timeAlternated).
	timers := []loopTimer{
		{&rep.ContainsNsPerOp, func() (float64, error) { return containsNsPerOp(d, qkeys, roundOps) }},
		{&rep.ContainsEventlogNsPerOp, func() (float64, error) { return containsNsPerOp(de, qkeys, roundOps) }},
		{&rep.BatchContainsNsPerOp, func() (float64, error) { return batchNsPerKey(d1, qkeys, roundOps) }},
		{&rep.BatchContainsMlpNsPerOp, func() (float64, error) { return batchNsPerKey(d, qkeys, roundOps) }},
	}
	var dt *lcds.Dict
	if telemetrySample > 0 {
		rep.TelemetrySample = telemetrySample
		if dt, err = lcds.New(qkeys, lcds.WithSeed(seed),
			lcds.WithTelemetry(lcds.TelemetryConfig{Sample: telemetrySample})); err != nil {
			return err
		}
		timers = append(timers, loopTimer{&rep.ContainsTelemetryNsPerOp, func() (float64, error) {
			return containsNsPerOp(dt, qkeys, roundOps)
		}})
	}
	rounds, err := timeAlternated(twins, timers)
	if err != nil {
		return err
	}
	rep.EventlogOverheadRatio = medianRatio(rounds[1], rounds[0])
	rep.BatchSpeedupVsScalar = medianRatio(rounds[2], rounds[3])

	// Allocations on the facade fast path. GC stays off during the alloc
	// counts so pool refills cannot inflate them.
	gc := debug.SetGCPercent(-1)
	rep.ContainsAllocsPerOp = testing.AllocsPerRun(1000, func() {
		d.Contains(qkeys[0])
	})
	rep.ContainsEventlogAllocs = testing.AllocsPerRun(1000, func() {
		de.Contains(qkeys[0])
	})
	if dt != nil {
		rep.ContainsTelemetryAllocs = testing.AllocsPerRun(1000, func() {
			dt.Contains(qkeys[0])
		})
	}
	debug.SetGCPercent(gc)

	if dt != nil {
		rep.TelemetryOverheadRatio = medianRatio(rounds[4], rounds[0])
		snap := dt.Telemetry().Snapshot()
		rep.TelemetryMaxPhiN = snap.MaxPhiN
		rep.TelemetryProbesPerQuery = snap.ProbesPerQuery
	}

	ddBare, err := lcds.NewDynamic(keys, 0, lcds.WithSeed(seed))
	if err != nil {
		return err
	}
	ddTel, err := lcds.NewDynamic(keys, 0, lcds.WithSeed(seed),
		lcds.WithTelemetry(lcds.TelemetryConfig{Sample: 1}))
	if err != nil {
		return err
	}
	if rounds, err = timeAlternated(nil, []loopTimer{
		{&rep.DynamicBatchNsPerKey, func() (float64, error) { return dynamicBatchNsPerKey(ddBare, keys, roundOps) }},
		{&rep.DynamicBatchTelemetryNsPerKey, func() (float64, error) { return dynamicBatchNsPerKey(ddTel, keys, roundOps) }},
	}); err != nil {
		return err
	}
	rep.DynamicBatchTelemetryRatio = medianRatio(rounds[1], rounds[0])

	// Dynamic update path. Sequential inserts first: build over half the
	// keys, insert the rest, Quiesce inside the timed window so triggered
	// rebuilds are amortized into the per-op figure rather than leaking
	// into the next measurement.
	dd, err := lcds.NewDynamic(keys[:n/2], 0, lcds.WithSeed(seed))
	if err != nil {
		return err
	}
	start = time.Now()
	for _, k := range keys[n/2:] {
		if _, err := dd.Insert(k); err != nil {
			return err
		}
	}
	dd.Quiesce()
	rep.InsertNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(n-n/2)

	rep.MixedWMaxWriters = workers
	if rep.MixedW1OpsPerSec, err = mixedDynamicOpsPerSec(keys, seed, 1); err != nil {
		return err
	}
	if rep.MixedW4OpsPerSec, err = mixedDynamicOpsPerSec(keys, seed, 4); err != nil {
		return err
	}
	switch workers {
	case 1:
		rep.MixedWMaxOpsPerSec = rep.MixedW1OpsPerSec
	case 4:
		rep.MixedWMaxOpsPerSec = rep.MixedW4OpsPerSec
	default:
		if rep.MixedWMaxOpsPerSec, err = mixedDynamicOpsPerSec(keys, seed, workers); err != nil {
			return err
		}
	}

	// Rotating-hot-set write storm at the same writer counts.
	hot := func(workers int) (float64, error) {
		ops, st, err := hotStormOpsPerSec(keys, seed, workers)
		rep.MixedHotCASRetries += st.WriteCASRetries
		return ops, err
	}
	if rep.MixedHotW1OpsPerSec, err = hot(1); err != nil {
		return err
	}
	if rep.MixedHotW4OpsPerSec, err = hot(4); err != nil {
		return err
	}
	switch workers {
	case 1:
		rep.MixedHotWMaxOpsPerSec = rep.MixedHotW1OpsPerSec
	case 4:
		rep.MixedHotWMaxOpsPerSec = rep.MixedHotW4OpsPerSec
	default:
		if rep.MixedHotWMaxOpsPerSec, err = hot(workers); err != nil {
			return err
		}
	}

	// Exact contention analysis, serial versus parallel, with the
	// bit-identity contract checked on the headline maxΦ·s. A discarded
	// warmup run faults in the table and support first, so the serial
	// timing is not penalized by cold caches relative to the parallel one.
	// The parallel run uses GOMAXPROCS workers — ExactWorkers clamps there
	// anyway, because oversubscribing pure-compute workers onto fewer
	// cores only adds scheduler churn (the old force-to-2 here produced a
	// 0.65× "speedup" on one core). On a single-core machine both runs are
	// therefore serial and the speedup is honestly ~1×.
	exactWorkers := workers
	rep.ExactWorkers = exactWorkers
	inner, err := core.Build(keys, core.Params{}, seed)
	if err != nil {
		return err
	}
	rep.BatchGroup = inner.BatchGroup()
	support := dist.NewUniformSet(keys, "").Support()
	if _, err := contention.ExactWorkers(inner, support, 1); err != nil {
		return err
	}
	start = time.Now()
	serial, err := contention.ExactWorkers(inner, support, 1)
	if err != nil {
		return err
	}
	rep.ExactSerialMs = msSince(start)
	start = time.Now()
	par, err := contention.ExactWorkers(inner, support, exactWorkers)
	if err != nil {
		return err
	}
	rep.ExactParallelMs = msSince(start)
	if serial.MaxStep != par.MaxStep || serial.MaxTotal != par.MaxTotal {
		return fmt.Errorf("parallel exact contention diverged: serial maxΦ=%v/%v, parallel %v/%v",
			serial.MaxStep, serial.MaxTotal, par.MaxStep, par.MaxTotal)
	}
	rep.ExactSpeedup = rep.ExactSerialMs / rep.ExactParallelMs
	rep.MaxPhiTimesS = serial.RatioStep()

	if outPath == "" {
		outPath = fmt.Sprintf("BENCH_%s.json", rep.Date)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	fmt.Printf("n=%d build %.1fms, query_n=%d contains %.0fns/op %.2g allocs/op, batch %.0fns/op -> %.0fns/op (%.2fx at G=%d), exact %0.fms -> %.0fms (%.2fx on %d workers, GOMAXPROCS=%d)\n",
		n, rep.BuildMs, rep.QueryN, rep.ContainsNsPerOp, rep.ContainsAllocsPerOp,
		rep.BatchContainsNsPerOp, rep.BatchContainsMlpNsPerOp, rep.BatchSpeedupVsScalar, rep.BatchGroup,
		rep.ExactSerialMs, rep.ExactParallelMs, rep.ExactSpeedup, exactWorkers, workers)
	fmt.Printf("eventlog: contains %.0fns/op (%.2fx overhead) %.2g allocs/op\n",
		rep.ContainsEventlogNsPerOp, rep.EventlogOverheadRatio, rep.ContainsEventlogAllocs)
	fmt.Printf("dynamic batch: %.0fns/key, %.0fns/key with sample-1 telemetry (%.2fx)\n",
		rep.DynamicBatchNsPerKey, rep.DynamicBatchTelemetryNsPerKey, rep.DynamicBatchTelemetryRatio)
	fmt.Printf("dynamic: insert %.0fns/op, mixed 80r/20w %.0f ops/s (w=1) %.0f ops/s (w=4) %.0f ops/s (w=%d)\n",
		rep.InsertNsPerOp, rep.MixedW1OpsPerSec, rep.MixedW4OpsPerSec, rep.MixedWMaxOpsPerSec, rep.MixedWMaxWriters)
	fmt.Printf("hot storm: %.0f/%.0f/%.0f ops/s (w=1/4/%d), %d cas retries\n",
		rep.MixedHotW1OpsPerSec, rep.MixedHotW4OpsPerSec, rep.MixedHotWMaxOpsPerSec,
		rep.MixedWMaxWriters, rep.MixedHotCASRetries)
	if telemetrySample > 0 {
		fmt.Printf("telemetry sample=%d: contains %.0fns/op (%.2fx overhead) %.2g allocs/op, maxPhi*n=%.3f, probes/query=%.3f\n",
			telemetrySample, rep.ContainsTelemetryNsPerOp, rep.TelemetryOverheadRatio,
			rep.ContainsTelemetryAllocs, rep.TelemetryMaxPhiN, rep.TelemetryProbesPerQuery)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// containsNsPerOp times one pass of ops facade Contains calls, cycling
// over keys.
func containsNsPerOp(d *lcds.Dict, keys []uint64, ops int) (float64, error) {
	start := time.Now()
	for i := 0; i < ops; i++ {
		if !d.Contains(keys[i%len(keys)]) {
			return 0, fmt.Errorf("lost key %d", keys[i%len(keys)])
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops), nil
}

// batchNsPerKey times one pass of ops keys through the facade's
// ContainsBatch in batches of 1024, sliding over keys like the Contains
// loop so the batches are not served from cache.
func batchNsPerKey(d *lcds.Dict, keys []uint64, ops int) (float64, error) {
	const batch = 1024
	out := make([]bool, batch)
	start := time.Now()
	for i := 0; i+batch <= ops; i += batch {
		lo := i % (len(keys) - batch + 1)
		if err := d.ContainsBatch(keys[lo:lo+batch], out); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops/batch*batch), nil
}

// dynamicBatchNsPerKey times one pass of ops keys through DynamicDict's
// ContainsBatch in batches of 1024 stored keys.
func dynamicBatchNsPerKey(d *lcds.DynamicDict, keys []uint64, ops int) (float64, error) {
	const batch = 1024
	out := make([]bool, batch)
	start := time.Now()
	for i := 0; i+batch <= ops; i += batch {
		lo := i % (len(keys) - batch + 1)
		if err := d.ContainsBatch(keys[lo:lo+batch], out); err != nil {
			return 0, err
		}
		for j, ok := range out {
			if !ok {
				return 0, fmt.Errorf("dynamic batch lost key %d", keys[lo+j])
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops/batch*batch), nil
}

// mixedDynamicOpsPerSec runs the mixed 80% Contains / 10% Insert / 10%
// Delete workload with the given number of worker goroutines against a
// fresh dynamic dictionary over keys, and returns aggregate operations per
// second. Writers churn the same key set they read, so membership drifts
// while buffer claims keep triggering rebuilds — the throughput number
// includes that steady-state rebuild cost.
func mixedDynamicOpsPerSec(keys []uint64, seed uint64, workers int) (float64, error) {
	d, err := lcds.NewDynamic(keys, 0, lcds.WithSeed(seed))
	if err != nil {
		return 0, err
	}
	const totalOps = 1 << 17
	per := totalOps / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(seed ^ (uint64(w+1) * 0x9e3779b97f4a7c15))
			for i := 0; i < per; i++ {
				k := keys[r.Intn(len(keys))]
				var err error
				switch r.Intn(10) {
				case 0:
					_, err = d.Insert(k)
				case 1:
					_, err = d.Delete(k)
				default:
					_, err = d.Contains(k)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	d.Quiesce()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(per*workers) / elapsed.Seconds(), nil
}

// hotStormOpsPerSec runs the rotating-hot-set write storm — pure 50/50
// insert/delete churn, 90% of it on a rotating 8-key point mass — with the
// given writer count, returning aggregate ops/sec and the dictionary's final
// stats. Every writer count faces the identical schedule (same drive seed).
func hotStormOpsPerSec(keys []uint64, seed uint64, workers int) (float64, lcds.DynamicStats, error) {
	d, err := lcds.NewDynamic(keys, 0, lcds.WithSeed(seed))
	if err != nil {
		return 0, lcds.DynamicStats{}, err
	}
	drive, err := workload.NewScenario("rotating:8:16384", keys, seed^0x407)
	if err != nil {
		return 0, lcds.DynamicStats{}, err
	}
	const totalOps = 1 << 17
	per := totalOps / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(seed ^ (uint64(w+1) * 0x9e3779b97f4a7c15))
			for i := 0; i < per; i++ {
				k := drive.Next().Key
				var err error
				if r.Intn(2) == 0 {
					_, err = d.Insert(k)
				} else {
					_, err = d.Delete(k)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	d.Quiesce()
	for _, err := range errs {
		if err != nil {
			return 0, lcds.DynamicStats{}, err
		}
	}
	return float64(per*workers) / elapsed.Seconds(), d.Stats(), nil
}
