package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/cellprobe"
	"repro/internal/rng"
)

// recorderStepTotals sums a recorder's per-step probe counts over all cells.
func recorderStepTotals(rec *cellprobe.Recorder, steps int) []uint64 {
	out := make([]uint64, steps)
	for t, row := range rec.PerStep {
		for _, c := range row {
			out[min(t, steps-1)] += c
		}
	}
	return out
}

// valueIndex is the index of the value that cell (row, col) of d's table
// replicates: the column itself on the dense perfect-hash and data rows.
func valueIndex(d *Dict, row, col int) int {
	switch {
	case row < 2*d.d:
		return 0
	case row == d.zRow() && d.strided:
		return col % d.r
	case row == d.zRow():
		return min(col/d.blkZ, d.r-1)
	case row < d.phRow() && d.strided:
		return col % d.m
	case row < d.phRow():
		return col / d.blkG
	}
	return col
}

// viewQueries returns 384 members and 128 fresh keys, interleaved.
func viewQueries(keys []uint64) []uint64 {
	fresh := distinctKeys(rng.New(74), 128)
	qs := make([]uint64, 0, 512)
	for i := 0; i < 128; i++ {
		qs = append(qs, keys[3*i], keys[3*i+1], keys[3*i+2], fresh[i])
	}
	return qs
}

// TestCellViewMatchesProbeTo runs the same queries with the same explicit
// seed twice, once on an unobserved table (the resolved cell view where the
// table hands its rows out) and once with a Recorder attached, which forces
// every probe through Table.ProbeTo. Answers must agree, the view's per-step
// tally must equal the recorder's per-step totals, and the view must have
// been taken on both the wavefront and the single-query path, for the block
// and the strided layout. Every cell of the view, read at the index its
// column replicates, must be the value At (and so ProbeTo) returns —
// including the trailing z columns, which repeat z[r−1].
func TestCellViewMatchesProbeTo(t *testing.T) {
	keys := distinctKeys(rng.New(71), 2048)
	qs := viewQueries(keys)
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"block", Params{}},
		{"strided", Params{Strided: true}},
	} {
		d, err := Build(keys, tc.p, 72)
		if err != nil {
			t.Fatal(err)
		}
		steps := d.MaxProbes()
		view := d.Table().CellView()
		if view == nil {
			t.Fatalf("%s: the unobserved table has no cell view", tc.name)
		}
		for row := range view {
			for col := 0; col < d.s; col++ {
				if got, want := view[row][valueIndex(d, row, col)], d.Table().At(row, col); got != want {
					t.Fatalf("%s: view cell (%d, %d) = %+v, At = %+v", tc.name, row, col, got, want)
				}
			}
		}
		// The block layout leaves s mod r trailing z columns past the last
		// block; they repeat z[r−1].
		if !tc.p.Strided && d.r*d.blkZ < d.s {
			if got := d.Table().At(d.zRow(), d.s-1).Lo; got != d.z[d.r-1] {
				t.Fatalf("%s: trailing z column holds %d, want z[r−1] = %d", tc.name, got, d.z[d.r-1])
			}
		}
		for _, path := range []string{"batch", "single"} {
			run := func(sc *QueryScratch) []bool {
				out := make([]bool, len(qs))
				r := rng.New(73)
				if path == "batch" {
					if err := d.ContainsBatch(qs, out, r, sc); err != nil {
						t.Fatal(err)
					}
				} else {
					for i, x := range qs {
						ok, err := d.ContainsScratch(x, r, sc)
						if err != nil {
							t.Fatal(err)
						}
						out[i] = ok
					}
				}
				if sc.view.rows != nil {
					t.Fatalf("%s/%s: view still held after the call", tc.name, path)
				}
				return out
			}

			var viewSc QueryScratch
			viewOut := run(&viewSc)

			rec := cellprobe.NewRecorder(d.Table().Size())
			d.Table().Attach(rec)
			var recSc QueryScratch
			recTally := make([]uint64, steps)
			recSc.SetTally(recTally)
			recOut := run(&recSc)
			d.Table().Detach()

			label := tc.name + "/" + path
			if !slices.Equal(viewOut, recOut) {
				t.Fatalf("%s: answers differ between the view and ProbeTo", label)
			}
			for i, x := range qs {
				if i%4 != 3 && !viewOut[i] {
					t.Fatalf("%s: member %d answered false", label, x)
				}
			}
			want := recorderStepTotals(rec, steps)
			if !slices.Equal(recTally, want) {
				t.Fatalf("%s: ProbeTo tally %v != recorder per-step totals %v", label, recTally, want)
			}
			if recSc.spill != nil {
				t.Fatalf("%s: view taken with a Recorder attached", label)
			}
			if viewSc.spill == nil {
				t.Fatalf("%s: view not taken on an unobserved table", label)
			}
			if !slices.Equal(viewSc.spill, want) {
				t.Fatalf("%s: view tally %v != recorder per-step totals %v", label, viewSc.spill, want)
			}
		}
	}
}

// TestCellViewArmedTally: with a tally armed and a tallying caller, the view
// counts into that tally exactly as ProbeTo does; a tally too short for every
// step keeps the ProbeTo path, whose clamping the view does not reproduce.
func TestCellViewArmedTally(t *testing.T) {
	keys := distinctKeys(rng.New(75), 1024)
	d := mustBuild(t, keys, 76)
	steps := d.MaxProbes()
	qs := viewQueries(keys)
	out := make([]bool, len(qs))

	var sc QueryScratch
	full := make([]uint64, steps+4)
	sc.SetTally(full)
	if err := d.ContainsBatch(qs, out, rng.New(77), &sc); err != nil {
		t.Fatal(err)
	}
	short := make([]uint64, steps-1)
	var shortSc QueryScratch
	shortSc.SetTally(short)
	if err := d.ContainsBatch(qs, out, rng.New(77), &shortSc); err != nil {
		t.Fatal(err)
	}
	if sc.spill != nil || shortSc.spill != nil {
		t.Fatal("view counted into its spill tally with a tally armed")
	}
	var total, shortTotal uint64
	for i, c := range full {
		total += c
		if i >= steps && c != 0 {
			t.Fatalf("step slot %d past MaxProbes counted %d", i, c)
		}
	}
	for i, c := range short {
		shortTotal += c
		if i < steps-2 && c != full[i] {
			t.Fatalf("step %d: short tally %d != full tally %d", i, c, full[i])
		}
	}
	if total != shortTotal || total < uint64(len(qs)) {
		t.Fatalf("tally totals %d (full) vs %d (short, clamped)", total, shortTotal)
	}
}

// TestCellViewClearedOnError: a corrupt table stops the batch with an error,
// and the scratch must not keep the table's rows past that return either.
func TestCellViewClearedOnError(t *testing.T) {
	keys := distinctKeys(rng.New(78), 512)
	d := mustBuild(t, keys, 79)
	corruptRow(d, d.zRow(), cellprobe.Cell{Lo: uint64(d.s)}) // z outside [0, s)
	var sc QueryScratch
	out := make([]bool, len(keys))
	if err := d.ContainsBatch(keys, out, rng.New(80), &sc); err == nil {
		t.Fatal("corrupt z row answered without error")
	}
	if sc.view.rows != nil || sc.spill == nil {
		t.Fatalf("after a failed batch: view held = %v, view taken = %v", sc.view.rows != nil, sc.spill != nil)
	}
	if _, err := d.ContainsScratch(keys[0], rng.New(81), &sc); err == nil {
		t.Fatal("corrupt z row answered without error")
	}
	if sc.view.rows != nil {
		t.Fatal("view still held after a failed query")
	}
}

// TestHeapCellsPinned: only the perfect-hash and data rows are dense; every
// replicated row stores each distinct value once, so the heap is
// 2s + 2d + r + (1+ρ)m cells whatever the layout — 8508 for the first
// build here, against (2d+4+ρ)·s cells in the model.
func TestHeapCellsPinned(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed uint64
		p    Params
		want int // 0: checked against the formula only
	}{
		{1024, 0, Params{}, 8508},
		{0, 1, Params{}, 0},
		{1, 2, Params{}, 0},
		{3000, 3, Params{Strided: true}, 0},
		{4096, 4, Params{D: 5}, 0},
	} {
		keys := distinctKeys(rng.New(35+tc.seed), tc.n)
		d, err := Build(keys, tc.p, 36+tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		want := 2*d.s + 2*d.d + d.r + (1+d.rho)*d.m
		got := d.Table().HeapCells()
		if got != want || (tc.want != 0 && got != tc.want) {
			t.Fatalf("n=%d %+v: HeapCells = %d, want 2s+2d+r+(1+ρ)m = %d (pinned %d)", tc.n, tc.p, got, want, tc.want)
		}
	}
}

// TestCellViewConcurrentContainsBatch: the cell view is resolved when the
// table is built, so concurrent batches on one table share it with no
// per-call setup to race on. Run under the race detector.
func TestCellViewConcurrentContainsBatch(t *testing.T) {
	keys := distinctKeys(rng.New(82), 4096)
	d := mustBuild(t, keys, 83)
	absent := distinctKeys(rng.New(84), 1024)
	qs := append(append([]uint64(nil), keys[:1024]...), absent...)
	r := rng.NewSharded(85, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc QueryScratch
			out := make([]bool, len(qs))
			for round := 0; round < 8; round++ {
				if err := d.ContainsBatch(qs, out, r, &sc); err != nil {
					errs <- err
					return
				}
				for i, ok := range out {
					if ok != (i < 1024) {
						errs <- fmt.Errorf("key %d answered %v", qs[i], ok)
						return
					}
				}
				if sc.spill == nil {
					errs <- fmt.Errorf("batch did not read through the cell view")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// everyKth is a Sampler that captures every k-th query it is asked about.
type everyKth struct{ k, n int }

func (s *everyKth) ShouldFold() bool { s.n++; return s.n%s.k == 0 }

// TestCoefficientCachePerCall: on the view route openView loads the 2d
// coefficient values into the scratch once per call, and a pooled scratch
// moves between tables (epochs, shards). Two tables built with different
// seeds alternate on one scratch, by batch and by single query, under
// Nest(steps, cells) with a Sampler capturing some queries, drawing from a
// single-shard Sharded (the localised stream) and then from an explicit
// RNG. A second scratch runs the same calls on identical tables with a
// Recorder attached, which keeps every probe on the ProbeTo route. Answers,
// tallies, capture logs and the next draw of the source and of the
// scratch's stream must agree.
func TestCoefficientCachePerCall(t *testing.T) {
	const nestSteps, nestCells = 3, 1000
	keys := [][]uint64{distinctKeys(rng.New(86), 2048), distinctKeys(rng.New(87), 1536)}
	seeds := []uint64{88, 89}
	type route struct {
		dicts []*Dict
		sc    QueryScratch
		tally []uint64
		out   [][]bool
		logs  [][]cellprobe.StepCell
		next  []uint64 // each source's next draw, then the scratch stream's
	}
	var view, probeTo route
	steps := 0
	for i := range keys {
		view.dicts = append(view.dicts, mustBuild(t, keys[i], seeds[i]))
		d := mustBuild(t, keys[i], seeds[i])
		d.Table().Attach(cellprobe.NewRecorder(d.Table().Size()))
		probeTo.dicts = append(probeTo.dicts, d)
		if view.dicts[i].Table().CellView() == nil || d.Table().CellView() != nil {
			t.Fatalf("table %d: view held %v unobserved, %v with a Recorder", i,
				view.dicts[i].Table().CellView() != nil, d.Table().CellView() != nil)
		}
		steps = max(steps, d.MaxProbes())
	}
	if a, b := view.dicts[0], view.dicts[1]; a.d != b.d || a.Table().At(0, 0) == b.Table().At(0, 0) {
		t.Fatal("the two tables differ in d or share f's first coefficient")
	}
	qs := [][]uint64{viewQueries(keys[0]), viewQueries(keys[1])}
	srcs := []func() rng.Source{
		func() rng.Source { return rng.NewSharded(90, 1) },
		func() rng.Source { return rng.New(91) },
	}
	for _, rt := range []*route{&view, &probeTo} {
		sc := &rt.sc
		rt.tally = make([]uint64, nestSteps+steps)
		sc.SetTally(rt.tally)
		sc.Nest(nestSteps, nestCells)
		sc.SetSampler(&everyKth{k: 7})
		for _, mk := range srcs {
			r := mk()
			for round := 0; round < 2; round++ {
				for _, path := range []string{"batch", "single"} {
					for j, d := range rt.dicts {
						out := make([]bool, len(qs[j]))
						if path == "batch" {
							if err := d.ContainsBatch(qs[j], out, r, sc); err != nil {
								t.Fatal(err)
							}
						} else {
							for i, x := range qs[j] {
								ok, err := d.ContainsScratch(x, r, sc)
								if err != nil {
									t.Fatal(err)
								}
								out[i] = ok
							}
						}
						rt.out = append(rt.out, out)
						rt.logs = append(rt.logs, slices.Clone(sc.StopCaptureProbes()))
					}
				}
			}
			rt.next = append(rt.next, r.Uint64())
		}
		rt.next = append(rt.next, sc.rs.Uint64())
	}
	for c, out := range view.out {
		if !slices.Equal(out, probeTo.out[c]) {
			t.Fatalf("call %d: answers differ between the view and ProbeTo", c)
		}
		for i, ok := range out {
			if ok != (i%4 != 3) {
				t.Fatalf("call %d: query %d answered %v", c, i, ok)
			}
		}
	}
	if !slices.Equal(view.tally, probeTo.tally) {
		t.Fatalf("view tally %v != ProbeTo tally %v", view.tally, probeTo.tally)
	}
	for i, c := range view.tally {
		if (i < nestSteps) != (c == 0) {
			t.Fatalf("tally slot %d counted %d under Nest(%d, %d)", i, c, nestSteps, nestCells)
		}
	}
	captured := 0
	for c, log := range view.logs {
		if !slices.Equal(log, probeTo.logs[c]) {
			t.Fatalf("call %d: capture log %v on the view, %v on ProbeTo", c, log, probeTo.logs[c])
		}
		captured += len(log)
	}
	if !slices.Equal(view.next, probeTo.next) {
		t.Fatalf("next draws (sources, then the scratch stream) %x on the view, %x on ProbeTo", view.next, probeTo.next)
	}
	if captured < 100 || view.logs[0][0].Step != nestSteps || view.logs[0][0].Cell < nestCells {
		t.Fatalf("%d probes captured; first %+v, want nested by (%d, %d)", captured, view.logs[0][0], nestSteps, nestCells)
	}
}
