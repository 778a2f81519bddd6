package core

import (
	"slices"
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
// been taken exactly where every row is dense — on both the wavefront and
// the single-query path.
func TestCellViewMatchesProbeTo(t *testing.T) {
	keys := distinctKeys(rng.New(71), 2048)
	qs := viewQueries(keys)
	for _, tc := range []struct {
		name     string
		p        Params
		wantView bool
	}{
		{"dense", Params{}, true},
		{"compact", Params{Compact: true}, false},
		{"strided", Params{Strided: true}, true},
	} {
		d, err := Build(keys, tc.p, 72)
		if err != nil {
			t.Fatal(err)
		}
		steps := d.MaxProbes()
		if got := d.Table().DenseRows() != nil; got != tc.wantView {
			t.Fatalf("%s: DenseRows available = %v, want %v", tc.name, got, tc.wantView)
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
			if !tc.wantView {
				if viewSc.spill != nil {
					t.Fatalf("%s: view taken on a table with compact rows", label)
				}
				continue
			}
			if viewSc.spill == nil {
				t.Fatalf("%s: view not taken on a dense, unobserved table", label)
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
	for j := 0; j < d.s; j++ {
		d.tab.Set(d.zRow(), j, cellprobe.Cell{Lo: uint64(d.s)}) // z outside [0, s)
	}
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

// TestCompactHeapCellsUnchanged: the row arena holds only the rows that are
// dense when it is carved, so a Compact dictionary's heap stays the two
// dense rows (perfect hash, data) plus one value per block of each
// replicated row — 8508 cells for this build, as before the arena.
func TestCompactHeapCellsUnchanged(t *testing.T) {
	keys := distinctKeys(rng.New(35), 1024)
	d, err := Build(keys, Params{Compact: true}, 36)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*d.s + 2*d.d + d.r + d.m + d.rho*d.m
	if got := d.Table().HeapCells(); got != want || got != 8508 {
		t.Fatalf("compact HeapCells = %d, want %d (8508)", got, want)
	}
	if d.Table().DenseRows() != nil {
		t.Fatal("compact table handed out dense rows")
	}
}
