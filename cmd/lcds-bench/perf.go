package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
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

// perfReport is the machine-readable benchmark record the -json mode writes.
// One file per run, named BENCH_<date>.json, starts the repository's
// performance trajectory: successive entries are comparable because every
// measured quantity is pinned to the same seed and key count.
type perfReport struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	N          int    `json:"n"`
	Seed       uint64 `json:"seed"`

	BuildMs         float64 `json:"build_ms"`
	BuildParallelMs float64 `json:"build_parallel_ms"`
	BuildWorkers    int     `json:"build_workers"`

	ContainsNsPerOp     float64 `json:"contains_ns_per_op"`
	ContainsAllocsPerOp float64 `json:"contains_allocs_per_op"`

	// Flight-recorder overhead: the same Contains loop against a dictionary
	// built with WithEventLog only. The recorder hangs off the write and
	// rebuild paths, never the query path, so the acceptance contract
	// (gated in CI via the ratio below) is ≤ 1.05× the uninstrumented
	// number with 0 allocs/op — both loops are timed best-of-3 so the
	// ratio measures the code path, not scheduler noise.
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
	// without it, per key answered, passes alternated and each side timed
	// best-of-3. At Sample 1 a dynamic dictionary tallies a batch's probes
	// in pooled scratch and flushes them once per batch, so the ratio is
	// CI-gated at ≤ 1.15.
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
	// the ops on a rotating 8-key point mass, the workload two-phase write
	// absorption exists for. mixed_hot_* runs with WithWriteAbsorption,
	// mixed_hot_cas_* the identical storm on the plain CAS claim path; the
	// acceptance contract is absorbed ≥ direct-CAS at every writer count.
	// mixed_hot_cas_retries counts the absorbed run's claim-CAS retries —
	// near zero, because hot writes never touch a contended slot — and
	// mixed_hot_absorbed_writes certifies the overlay actually engaged.
	MixedHotW1OpsPerSec      float64 `json:"mixed_hot_w1_ops_per_sec"`
	MixedHotW4OpsPerSec      float64 `json:"mixed_hot_w4_ops_per_sec"`
	MixedHotWMaxOpsPerSec    float64 `json:"mixed_hot_wmax_ops_per_sec"`
	MixedHotCasW1OpsPerSec   float64 `json:"mixed_hot_cas_w1_ops_per_sec"`
	MixedHotCasW4OpsPerSec   float64 `json:"mixed_hot_cas_w4_ops_per_sec"`
	MixedHotCasWMaxOpsPerSec float64 `json:"mixed_hot_cas_wmax_ops_per_sec"`
	MixedHotCASRetries       uint64  `json:"mixed_hot_cas_retries"`
	MixedHotAbsorbedWrites   uint64  `json:"mixed_hot_absorbed_writes"`

	// Telemetry overhead, measured only when -telemetry k is given: the
	// same Contains loop against a dictionary built with
	// WithTelemetry(Sample: k), and its ratio to the uninstrumented number.
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
		Date:         time.Now().Format("2006-01-02"),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   workers,
		N:            n,
		Seed:         seed,
		BuildWorkers: workers,
	}
	r := rng.New(seed)
	keys := make([]uint64, 0, n)
	seen := make(map[uint64]bool, n)
	for len(keys) < n {
		k := r.Uint64n(lcds.MaxKey)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}

	// Construction, serial and racing GOMAXPROCS draws per round.
	start := time.Now()
	d, err := lcds.New(keys, lcds.WithSeed(seed))
	if err != nil {
		return err
	}
	rep.BuildMs = msSince(start)
	start = time.Now()
	if _, err := lcds.New(keys, lcds.WithSeed(seed), lcds.WithParallelBuild(workers)); err != nil {
		return err
	}
	rep.BuildParallelMs = msSince(start)

	// Query latency and allocations on the facade fast path. GC stays off
	// during the alloc count so pool refills cannot inflate it.
	const queryOps = 1 << 18
	if rep.ContainsNsPerOp, err = containsNsPerOp(d, keys, queryOps); err != nil {
		return err
	}
	gc := debug.SetGCPercent(-1)
	rep.ContainsAllocsPerOp = testing.AllocsPerRun(1000, func() {
		d.Contains(keys[0])
	})
	debug.SetGCPercent(gc)

	// The same loop with the flight recorder armed. The recorder observes
	// writes and rebuilds only, so this is the CI-gated proof the query
	// path stayed untouched.
	de, err := lcds.New(keys, lcds.WithSeed(seed), lcds.WithEventLog(lcds.EventLogConfig{}))
	if err != nil {
		return err
	}
	if rep.ContainsEventlogNsPerOp, err = containsNsPerOp(de, keys, queryOps); err != nil {
		return err
	}
	gc = debug.SetGCPercent(-1)
	rep.ContainsEventlogAllocs = testing.AllocsPerRun(1000, func() {
		de.Contains(keys[0])
	})
	debug.SetGCPercent(gc)
	if rep.ContainsNsPerOp > 0 {
		rep.EventlogOverheadRatio = rep.ContainsEventlogNsPerOp / rep.ContainsNsPerOp
	}

	if telemetrySample > 0 {
		rep.TelemetrySample = telemetrySample
		dt, err := lcds.New(keys, lcds.WithSeed(seed),
			lcds.WithTelemetry(lcds.TelemetryConfig{Sample: telemetrySample}))
		if err != nil {
			return err
		}
		start = time.Now()
		for i := 0; i < queryOps; i++ {
			if !dt.Contains(keys[i%n]) {
				return fmt.Errorf("lost key %d under telemetry", keys[i%n])
			}
		}
		rep.ContainsTelemetryNsPerOp = float64(time.Since(start).Nanoseconds()) / queryOps
		gc = debug.SetGCPercent(-1)
		rep.ContainsTelemetryAllocs = testing.AllocsPerRun(1000, func() {
			dt.Contains(keys[0])
		})
		debug.SetGCPercent(gc)
		if rep.ContainsNsPerOp > 0 {
			rep.TelemetryOverheadRatio = rep.ContainsTelemetryNsPerOp / rep.ContainsNsPerOp
		}
		snap := dt.Telemetry().Snapshot()
		rep.TelemetryMaxPhiN = snap.MaxPhiN
		rep.TelemetryProbesPerQuery = snap.ProbesPerQuery
	}

	// Batch path, scalar reference first: a width-1 wavefront answers one
	// query at a time, keeping the field comparable with records from
	// before the scheduler existed. The same seed builds the identical
	// dictionary, so both loops probe the same table.
	const batch = 1024
	out := make([]bool, batch)
	d1, err := lcds.New(keys, lcds.WithSeed(seed), lcds.WithBatchGroup(1))
	if err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i+batch <= queryOps; i += batch {
		if err := d1.ContainsBatch(keys[:batch], out); err != nil {
			return err
		}
	}
	rep.BatchContainsNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(queryOps/batch*batch)
	start = time.Now()
	for i := 0; i+batch <= queryOps; i += batch {
		if err := d.ContainsBatch(keys[:batch], out); err != nil {
			return err
		}
	}
	rep.BatchContainsMlpNsPerOp = float64(time.Since(start).Nanoseconds()) / float64(queryOps/batch*batch)
	if rep.BatchContainsMlpNsPerOp > 0 {
		rep.BatchSpeedupVsScalar = rep.BatchContainsNsPerOp / rep.BatchContainsMlpNsPerOp
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
	for pass := 0; pass < 3; pass++ {
		bare, err := dynamicBatchNsPerKey(ddBare, keys, queryOps)
		if err != nil {
			return err
		}
		tel, err := dynamicBatchNsPerKey(ddTel, keys, queryOps)
		if err != nil {
			return err
		}
		if pass == 0 || bare < rep.DynamicBatchNsPerKey {
			rep.DynamicBatchNsPerKey = bare
		}
		if pass == 0 || tel < rep.DynamicBatchTelemetryNsPerKey {
			rep.DynamicBatchTelemetryNsPerKey = tel
		}
	}
	rep.DynamicBatchTelemetryRatio = rep.DynamicBatchTelemetryNsPerKey / rep.DynamicBatchNsPerKey

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

	// Rotating-hot-set write storm, absorbed and direct-CAS.
	hot := func(workers int, absorb bool) (float64, lcds.DynamicStats, error) {
		return hotStormOpsPerSec(keys, seed, workers, absorb)
	}
	var hotStats lcds.DynamicStats
	if rep.MixedHotW1OpsPerSec, hotStats, err = hot(1, true); err != nil {
		return err
	}
	rep.MixedHotCASRetries = hotStats.WriteCASRetries
	rep.MixedHotAbsorbedWrites = hotStats.AbsorbedWrites
	if rep.MixedHotW4OpsPerSec, hotStats, err = hot(4, true); err != nil {
		return err
	}
	rep.MixedHotCASRetries += hotStats.WriteCASRetries
	rep.MixedHotAbsorbedWrites += hotStats.AbsorbedWrites
	if rep.MixedHotCasW1OpsPerSec, _, err = hot(1, false); err != nil {
		return err
	}
	if rep.MixedHotCasW4OpsPerSec, _, err = hot(4, false); err != nil {
		return err
	}
	switch workers {
	case 1:
		rep.MixedHotWMaxOpsPerSec = rep.MixedHotW1OpsPerSec
		rep.MixedHotCasWMaxOpsPerSec = rep.MixedHotCasW1OpsPerSec
	case 4:
		rep.MixedHotWMaxOpsPerSec = rep.MixedHotW4OpsPerSec
		rep.MixedHotCasWMaxOpsPerSec = rep.MixedHotCasW4OpsPerSec
	default:
		if rep.MixedHotWMaxOpsPerSec, hotStats, err = hot(workers, true); err != nil {
			return err
		}
		rep.MixedHotCASRetries += hotStats.WriteCASRetries
		rep.MixedHotAbsorbedWrites += hotStats.AbsorbedWrites
		if rep.MixedHotCasWMaxOpsPerSec, _, err = hot(workers, false); err != nil {
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
	fmt.Printf("n=%d build %.1fms (parallel %.1fms), contains %.0fns/op %.2g allocs/op, batch %.0fns/op -> %.0fns/op (%.2fx at G=%d), exact %0.fms -> %.0fms (%.2fx on %d workers, GOMAXPROCS=%d)\n",
		n, rep.BuildMs, rep.BuildParallelMs, rep.ContainsNsPerOp, rep.ContainsAllocsPerOp,
		rep.BatchContainsNsPerOp, rep.BatchContainsMlpNsPerOp, rep.BatchSpeedupVsScalar, rep.BatchGroup,
		rep.ExactSerialMs, rep.ExactParallelMs, rep.ExactSpeedup, exactWorkers, workers)
	fmt.Printf("eventlog: contains %.0fns/op (%.2fx overhead) %.2g allocs/op\n",
		rep.ContainsEventlogNsPerOp, rep.EventlogOverheadRatio, rep.ContainsEventlogAllocs)
	fmt.Printf("dynamic batch: %.0fns/key, %.0fns/key with sample-1 telemetry (%.2fx)\n",
		rep.DynamicBatchNsPerKey, rep.DynamicBatchTelemetryNsPerKey, rep.DynamicBatchTelemetryRatio)
	fmt.Printf("dynamic: insert %.0fns/op, mixed 80r/20w %.0f ops/s (w=1) %.0f ops/s (w=4) %.0f ops/s (w=%d)\n",
		rep.InsertNsPerOp, rep.MixedW1OpsPerSec, rep.MixedW4OpsPerSec, rep.MixedWMaxOpsPerSec, rep.MixedWMaxWriters)
	fmt.Printf("hot storm: absorbed %.0f/%.0f/%.0f ops/s vs cas %.0f/%.0f/%.0f ops/s (w=1/4/%d), %d absorbed writes, %d cas retries\n",
		rep.MixedHotW1OpsPerSec, rep.MixedHotW4OpsPerSec, rep.MixedHotWMaxOpsPerSec,
		rep.MixedHotCasW1OpsPerSec, rep.MixedHotCasW4OpsPerSec, rep.MixedHotCasWMaxOpsPerSec,
		rep.MixedWMaxWriters, rep.MixedHotAbsorbedWrites, rep.MixedHotCASRetries)
	if telemetrySample > 0 {
		fmt.Printf("telemetry sample=%d: contains %.0fns/op (%.2fx overhead) %.2g allocs/op, maxPhi*n=%.3f, probes/query=%.3f\n",
			telemetrySample, rep.ContainsTelemetryNsPerOp, rep.TelemetryOverheadRatio,
			rep.ContainsTelemetryAllocs, rep.TelemetryMaxPhiN, rep.TelemetryProbesPerQuery)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// containsNsPerOp times the facade Contains loop best-of-3: the minimum of
// three back-to-back passes, so one scheduler hiccup cannot fake an
// overhead regression in a CI-gated ratio.
func containsNsPerOp(d *lcds.Dict, keys []uint64, ops int) (float64, error) {
	var best float64
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for i := 0; i < ops; i++ {
			if !d.Contains(keys[i%len(keys)]) {
				return 0, fmt.Errorf("lost key %d", keys[i%len(keys)])
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(ops)
		if pass == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
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
// stats. absorb toggles WithWriteAbsorption, so the absorbed and direct-CAS
// runs face the identical schedule (same drive seed) and differ only in the
// write protocol.
func hotStormOpsPerSec(keys []uint64, seed uint64, workers int, absorb bool) (float64, lcds.DynamicStats, error) {
	opts := []lcds.Option{lcds.WithSeed(seed)}
	if absorb {
		opts = append(opts, lcds.WithWriteAbsorption())
	}
	d, err := lcds.NewDynamic(keys, 0, opts...)
	if err != nil {
		return 0, lcds.DynamicStats{}, err
	}
	drive, err := workload.NewRotatingHotSet(keys, 8, 1<<14, 0.9, seed^0x407)
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
				k := drive.Next()
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
