package experiments

import (
	"fmt"
	"sort"

	"repro/internal/cellprobe"
	"repro/internal/contention"
	"repro/internal/dist"
	"repro/internal/memsim"
	"repro/internal/rng"
	"repro/internal/scheme"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// A8 — live telemetry self-check: the runtime Φ̂ estimator agrees with the
// exact analysis. Every roster scheme feeds a telemetry instance through a
// capture (sampling 1, so every query's cells are folded): the table trace
// records each query's probes and the capture hands them over after the
// query returns. Each scheme is driven with queries
// round-robin over the member keys — the deterministic realization of the
// uniform positive distribution, so each key contributes exactly Q/n
// queries and the empirical per-cell probe mass converges to the analytic
// Φ(j) without Monte-Carlo extreme-value bias. The table reports the
// measured maxΦ̂·n next to contention.Exact's maxΦ·n and the ratio between
// them; the core dictionary must sit at 1.00/1.00. Replicated baselines
// still draw their replica columns at random, so their live/exact ratios
// carry sampling noise the deterministic schemes do not.
//
// The last three columns close the loop with the execution model: a batch
// of simulated processors replays captured probe sequences through
// internal/memsim, and the SAME telemetry estimator folds those sequences,
// so one Φ̂ pipeline measures both the live and the simulated stream, and
// the simulated queueing delay (avg cycles waiting in module queues) and
// slowdown appear next to the live contention figures they are supposed to
// explain.
func A8(cfg Config) (*Table, error) {
	n := cfg.FixedN
	keys := Keys(n, cfg.Seed)
	q := dist.NewUniformSet(keys, "")
	// Round the query budget up to a whole number of round-robin passes so
	// every key is queried equally often.
	passes := (cfg.Queries + n - 1) / n
	if passes < 1 {
		passes = 1
	}
	queries := passes * n
	// Simulated batch size: enough concurrent processors that module queues
	// actually form on contended cells, small enough to stay cheap.
	const simProcs = 32
	names := cfg.filterNames(RosterNames())
	t := &Table{
		ID: "A8",
		Title: fmt.Sprintf("Live telemetry vs exact analysis — empirical Φ̂ under %d round-robin positive queries (n = %d, sampling 1)",
			queries, n),
		Columns: []string{"structure", "cells", "probes/q(live)", "probes/q(exact)",
			"maxΦ̂·n(live)", "maxΦ·n(exact)", "ratio", "stepMassL∞",
			"maxΦ̂·n(sim)", "simQdelay", "simSlowdown"},
		Notes: []string{
			"live numbers come from the runtime telemetry (internal/telemetry), fed each query's probes by a capture on the structure's cell-probe table — the same estimator Dict.Telemetry().Snapshot() reports as maxΦ̂·n",
			"ratio = maxΦ̂·n(live) / maxΦ·n(exact); deterministic schemes land on 1.000 exactly, replicated ones wander by the extreme-value noise of their random replica draws",
			"stepMassL∞ is the largest absolute gap between the measured and exact per-step probe mass vectors — 0 for schemes whose probe count is input-independent",
			fmt.Sprintf("sim columns replay %d captured probe sequences through internal/memsim (one module per cell), and the same telemetry estimator folds those sequences: maxΦ̂·n(sim) is the estimator's reading of the simulated stream, simQdelay the mean cycles each probe waited in a module queue (0 = served on issue), simSlowdown the makespan over the conflict-free ideal", simProcs),
		},
	}
	for _, name := range names {
		st, err := BuildRoster([]string{name}, keys, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("A8: %w", err)
		}
		s := st[0]
		tel := telemetry.New(telemetry.Config{Sample: 1}, s.Table().Size(), s.N())
		i := 0
		next := func() uint64 { i++; return keys[(i-1)%n] }
		if err := driveTelemetry(s, tel, queries, next, rng.New(cfg.Seed^0xa8)); err != nil {
			return nil, fmt.Errorf("A8 %s: %w", name, err)
		}
		ex, err := contention.Exact(s, q.Support())
		if err != nil {
			return nil, fmt.Errorf("A8 %s: %w", name, err)
		}
		drift := tel.Snapshot().CompareExact(ex)

		// Simulated execution: capture simProcs probe sequences, replay
		// them through the memory simulator, and fold them into a fresh
		// instance of the same estimator, step i being a probe's index in
		// its sequence.
		seqs, err := memsim.Sequences(s, q, simProcs, rng.New(cfg.Seed^0xa8^0x51))
		if err != nil {
			return nil, fmt.Errorf("A8 %s: %w", name, err)
		}
		sim := memsim.Run(seqs, memsim.Config{})
		simTel := telemetry.New(telemetry.Config{Sample: 1}, s.Table().Size(), s.N())
		simFeed := simTel.NewCapture()
		for _, seq := range seqs {
			for i, cell := range seq {
				simFeed.Probe(i, cell)
			}
			simFeed.Flush()
			simTel.ObserveQuery(true, false, 0)
		}
		simDrift := simTel.Snapshot().CompareExact(ex)

		t.Rows = append(t.Rows, []string{
			name, d(s.Table().Size()), f3s(drift.ProbesLive), f3s(drift.ProbesExact),
			f3s(drift.MaxPhiLive * float64(n)), f3s(drift.MaxPhiExact * float64(n)),
			f3s(drift.MaxPhiRatio), fmt.Sprintf("%.1e", drift.StepMassMaxDiff),
			f3s(simDrift.MaxPhiLive * float64(n)), f3s(sim.AvgLatency - 1), f3s(sim.Slowdown()),
		})
	}
	return t, nil
}

// driveTelemetry answers queries keys drawn from next on s, feeding tel
// each query's probes through a capture installed as s's table trace.
func driveTelemetry(s scheme.Scheme, tel *telemetry.Telemetry, queries int, next func() uint64, r rng.Source) error {
	feed := tel.NewCapture()
	s.Table().SetTrace(feed.Probe)
	defer s.Table().SetTrace(nil)
	for i := 0; i < queries; i++ {
		if _, err := s.Contains(next(), r); err != nil {
			return err
		}
		feed.Flush()
		tel.ObserveQuery(true, false, 0)
	}
	return nil
}

// sketchDrift summarizes how well the reservoir (step, cell) sketch tracks
// the exact per-step × per-cell probe matrix captured by a sequential
// cellprobe.Recorder attached to the same table during the same drive.
type sketchDrift struct {
	steps    int     // sketch steps compared against an exact row
	top1     int     // steps whose sketch-hottest cell is an exact argmax
	overlap  float64 // mean fraction of sketch top-K cells inside exact top-K
	shareErr float64 // max |sketch share − exact share| over top-1 cells
	hotMax   float64 // max over steps of the exact hottest cell's share
}

// sketchAgreement diffs the sketch's per-step hottest-cell table against
// the recorder's exact matrix. A step's top-1 counts as a hit when the
// sketch's hottest cell ties the exact maximum (exact argmax ties are all
// acceptable answers — the reservoir cannot distinguish equals).
func sketchAgreement(rows []telemetry.StepCellView, rec *cellprobe.Recorder, topK int) sketchDrift {
	var dr sketchDrift
	var overlapSum float64
	for _, row := range rows {
		if row.Step >= len(rec.PerStep) || rec.PerStep[row.Step] == nil || len(row.Cells) == 0 {
			continue
		}
		exact := rec.PerStep[row.Step]
		var maxCount, stepTotal uint64
		nonzero := 0
		for _, c := range exact {
			stepTotal += c
			if c > 0 {
				nonzero++
			}
			if c > maxCount {
				maxCount = c
			}
		}
		if stepTotal == 0 {
			continue
		}
		dr.steps++
		if share := float64(maxCount) / float64(stepTotal); share > dr.hotMax {
			dr.hotMax = share
		}
		top := row.Cells[0]
		if exact[top.Cell] == maxCount {
			dr.top1++
		}
		if err := top.Share - float64(exact[top.Cell])/float64(stepTotal); err < 0 {
			if -err > dr.shareErr {
				dr.shareErr = -err
			}
		} else if err > dr.shareErr {
			dr.shareErr = err
		}
		// Exact top-K threshold: the K-th largest nonzero count (or the
		// smallest nonzero count when fewer than K cells have mass). Any
		// sketch cell with exact count ≥ threshold is inside the exact
		// top-K under some tie-breaking.
		counts := make([]uint64, 0, nonzero)
		for _, c := range exact {
			if c > 0 {
				counts = append(counts, c)
			}
		}
		sort.Slice(counts, func(a, b int) bool { return counts[a] > counts[b] })
		k := topK
		if k > len(counts) {
			k = len(counts)
		}
		threshold := counts[k-1]
		hit := 0
		for _, c := range row.Cells {
			if exact[c.Cell] >= threshold {
				hit++
			}
		}
		denom := topK
		if denom > len(counts) {
			denom = len(counts)
		}
		if denom > len(row.Cells) {
			denom = len(row.Cells)
		}
		overlapSum += float64(hit) / float64(denom)
	}
	if dr.steps > 0 {
		dr.overlap = overlapSum / float64(dr.steps)
	}
	return dr
}

// A10 — per-step hottest cells: the reservoir-sampled (step, cell) sketch
// (telemetry.StepCellSketch, the table behind Snapshot.StepCells and
// /debug/telemetry) agrees with the exact per-step × per-cell probe matrix.
// Each structure is driven with a skewed weighted schedule while BOTH a
// sequential cellprobe.Recorder (exact, dense) and a telemetry capture with
// the sketch enabled (sampling 1) are attached to the same table, so the
// estimate and the ground truth observe the identical probe stream. The
// table reports, per structure and distribution, how often the sketch's
// per-step hottest cell is an exact argmax, the mean top-K overlap with the
// exact top-K, and the worst-case error of the sketch's hot-share estimate.
//
// The point distribution splits the roster in two instructive ways. For
// schemes whose probe path is a deterministic function of the key (fks,
// cuckoo, bsearch), every query probes the same cell at each step — the
// exact hot share is 1.0 at every step and the sketch must score a perfect
// top-1; any miss is a bug, not noise. The core lcds dictionary randomizes
// its intermediate probes per query precisely so that no hot cell can form:
// only the terminal key-read steps retain a stable argmax, and the sketch's
// low top-1 count across the remaining steps is the low-contention
// guarantee itself — there is nothing stable for the sketch (or an
// adversary) to find. The Zipf drive exercises the reservoir under
// realistic skew between those extremes.
func A10(cfg Config) (*Table, error) {
	n := cfg.FixedN
	keys := Keys(n, cfg.Seed)
	passes := (cfg.Queries + n - 1) / n
	if passes < 1 {
		passes = 1
	}
	queries := passes * n
	const topK = 3
	dists := []struct{ label, spec string }{
		{"zipf(1.2)", "zipf:1.2"},
		{"point", "point"},
	}
	names := cfg.filterNames(RosterNames())
	t := &Table{
		ID: "A10",
		Title: fmt.Sprintf("Per-step hottest cells — reservoir (step, cell) sketch vs exact probe matrix under %d skewed queries (n = %d, sampling 1)",
			queries, n),
		Columns: []string{"structure", "dist", "steps", "probes/q", "retained",
			"top1", "overlap@3", "shareΔmax", "hotShare(exact)"},
		Notes: []string{
			"the sketch is telemetry.StepCellSketch — the always-on reservoir behind Snapshot.StepCells — fed here at sampling 1 by a per-query capture alongside a sequential cellprobe.Recorder on the same table, so both see the identical probe stream",
			"top1 = steps where the sketch's hottest cell ties the exact per-step argmax / steps compared; overlap@3 = mean fraction of the sketch's top-3 cells inside the exact top-3; shareΔmax = worst |sketch hot-share − exact hot-share| over top-1 cells; hotShare(exact) = the exact hottest cell's worst-case probe share",
			"point (every query hits one key) makes deterministic-probe schemes (fks, cuckoo, bsearch) probe one cell per step — top1 must be perfect; the core lcds dictionary randomizes every intermediate probe, so only its terminal key-read steps keep a stable hot cell and the sketch's low top1 across the rest IS the low-contention property (hotShare reports the worst step, which for lcds/point is that deterministic terminal read)",
			"retained = reservoir samples surviving across all steps (bounded by slots × stripes regardless of query volume — the sketch's whole point)",
		},
	}
	for _, name := range names {
		for _, q := range dists {
			st, err := BuildRoster([]string{name}, keys, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("A10: %w", err)
			}
			s := st[0]
			drive, err := workload.NewScenario(q.spec, keys, cfg.Seed^0xa10)
			if err != nil {
				return nil, fmt.Errorf("A10 %s/%s: %w", name, q.label, err)
			}
			rec := cellprobe.NewRecorder(s.Table().Size())
			s.Table().Attach(rec)
			tel := telemetry.New(telemetry.Config{Sample: 1, SketchSlots: 512, SketchTopK: topK},
				s.Table().Size(), s.N())
			next := func() uint64 { rec.EndQuery(); return drive.Next().Key } // rec counts queries as drawn
			if err := driveTelemetry(s, tel, queries, next, rng.New(cfg.Seed^0xa10)); err != nil {
				return nil, fmt.Errorf("A10 %s/%s: %w", name, q.label, err)
			}
			s.Table().Detach()
			rows := tel.Snapshot().StepCells
			var retained uint64
			for _, row := range rows {
				retained += row.Samples
			}
			dr := sketchAgreement(rows, rec, topK)
			t.Rows = append(t.Rows, []string{
				name, q.label, d(dr.steps), f3s(rec.ProbesPerQuery()), d(int(retained)),
				fmt.Sprintf("%d/%d", dr.top1, dr.steps), f3s(dr.overlap), f3s(dr.shareErr),
				f3s(dr.hotMax),
			})
		}
	}
	return t, nil
}

// A9 — distribution-aware telemetry: the live Φ̂ estimator agrees with the
// exact analysis under *skewed* query distributions, not just the uniform
// drive A8 checks. The paper's contention bound is quantified over every q;
// T3 computes exact contention under Zipf and adversarial point-mass skews
// offline, and this experiment closes the loop by driving the same skews
// through instrumented structures and diffing the live counters against
// contention.Exact under the matching weights.
//
// The drive is the weighted analogue of A8's round-robin: a deterministic
// schedule realizing each distribution by largest-remainder apportionment
// (a weighted internal/workload.Scenario), with the exact analysis computed
// under the schedule's *realized* frequencies (Scenario.Support), so
// apportionment quantization cancels and deterministic schemes land on
// ratio 1.000 exactly. Replicated
// baselines still draw their replica columns at random per query; their
// ratios carry extreme-value sampling noise that shrinks with the query
// budget.
func A9(cfg Config) (*Table, error) {
	n := cfg.FixedN
	keys := Keys(n, cfg.Seed)
	passes := (cfg.Queries + n - 1) / n
	if passes < 1 {
		passes = 1
	}
	queries := passes * n
	dists := []struct{ label, spec string }{
		{"zipf(0.8)", "zipf:0.8"},
		{"zipf(1.2)", "zipf:1.2"},
		{"point", "point"},
	}
	names := cfg.filterNames(RosterNames())
	t := &Table{
		ID: "A9",
		Title: fmt.Sprintf("Live telemetry vs exact analysis under skewed drive — Φ̂ under %d weighted-schedule queries per distribution (n = %d, sampling 1)",
			queries, n),
		Columns: []string{"structure", "dist", "probes/q(live)", "probes/q(exact)",
			"maxΦ̂·n(live)", "maxΦ·n(exact)", "ratio", "stepMassL∞"},
		Notes: []string{
			"each distribution is driven as a deterministic weighted schedule (largest-remainder apportionment, seeded shuffle) and the exact analysis is computed under the schedule's realized frequencies — the skewed analogue of A8's round-robin uniform drive",
			"zipf(s) ranks the member keys by construction order; point is the T3 adversarial distribution (every query hits one key)",
			"ratio = maxΦ̂·n(live) / maxΦ·n(exact); deterministic schemes land on 1.000 exactly, replicated ones wander by the extreme-value noise of their random replica draws",
		},
	}
	for _, name := range names {
		for _, q := range dists {
			st, err := BuildRoster([]string{name}, keys, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("A9: %w", err)
			}
			s := st[0]
			drive, err := workload.NewScenario(q.spec, keys, cfg.Seed^0xa9)
			if err != nil {
				return nil, fmt.Errorf("A9 %s/%s: %w", name, q.label, err)
			}
			tel := telemetry.New(telemetry.Config{Sample: 1}, s.Table().Size(), s.N())
			next := func() uint64 { return drive.Next().Key }
			if err := driveTelemetry(s, tel, queries, next, rng.New(cfg.Seed^0xa9)); err != nil {
				return nil, fmt.Errorf("A9 %s/%s: %w", name, q.label, err)
			}
			ex, err := contention.Exact(s, drive.Support())
			if err != nil {
				return nil, fmt.Errorf("A9 %s/%s: %w", name, q.label, err)
			}
			drift := tel.Snapshot().CompareExact(ex)
			t.Rows = append(t.Rows, []string{
				name, q.label, f3s(drift.ProbesLive), f3s(drift.ProbesExact),
				f3s(drift.MaxPhiLive * float64(n)), f3s(drift.MaxPhiExact * float64(n)),
				f3s(drift.MaxPhiRatio), fmt.Sprintf("%.1e", drift.StepMassMaxDiff),
			})
		}
	}
	return t, nil
}
