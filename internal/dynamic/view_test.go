package dynamic

import (
	"slices"
	"testing"

	"repro/internal/cellprobe"
	"repro/internal/core"
	"repro/internal/rng"
)

// TestDynamicCellViewMatchesProbeTo is core's view/ProbeTo equivalence on
// the dynamic read paths: with buffered inserts and tombstones in play, the
// same explicit seed answers identically with the base table unobserved
// (the wavefront and single-query paths read it through the cell view) and
// with a Recorder attached (every base probe through ProbeTo), and the
// tally's static steps equal the recorder's per-step totals.
func TestDynamicCellViewMatchesProbeTo(t *testing.T) {
	keys := distinctKeys(rng.New(81), 3000)
	d, err := New(keys[:2000], Params{Epsilon: 0.5, SyncRebuild: true}, 82)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[2000:2200] {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:200] {
		if _, err := d.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().Epoch != 1 {
		t.Fatal("updates rebuilt; the buffer must stay in play")
	}
	qs := keys[:2600] // tombstoned, static, buffered and absent keys
	base := d.BaseTable()
	steps := d.Base().MaxProbes()
	if base.CellView() == nil {
		t.Fatal("the unobserved base table does not hand out its rows")
	}
	tallyLen := steps + 8 // buffer steps land past the static ones

	for _, path := range []string{"batch", "single"} {
		run := func() ([]bool, []uint64) {
			var sc core.QueryScratch
			tally := make([]uint64, tallyLen)
			sc.SetTally(tally)
			out := make([]bool, len(qs))
			r := rng.New(83)
			if path == "batch" {
				if err := d.ContainsBatchScratch(qs, out, r, &sc); err != nil {
					t.Fatal(err)
				}
			} else {
				for i, x := range qs {
					ok, err := d.ContainsScratch(x, r, &sc)
					if err != nil {
						t.Fatal(err)
					}
					out[i] = ok
				}
			}
			return out, tally
		}
		viewOut, viewTally := run()
		rec := cellprobe.NewRecorder(base.Size())
		base.Attach(rec)
		recOut, recTally := run()
		base.Detach()

		if !slices.Equal(viewOut, recOut) {
			t.Fatalf("%s: answers differ between the view and ProbeTo", path)
		}
		for i, x := range qs {
			want := i >= 200 && i < 2200
			if viewOut[i] != want {
				t.Fatalf("%s: Contains(%d) = %v, want %v", path, x, viewOut[i], want)
			}
		}
		if !slices.Equal(viewTally, recTally) {
			t.Fatalf("%s: tallies differ:\nview    %v\nProbeTo %v", path, viewTally, recTally)
		}
		perStep := make([]uint64, steps)
		for s, row := range rec.PerStep {
			for _, c := range row {
				perStep[s] += c
			}
		}
		if !slices.Equal(viewTally[:steps], perStep) {
			t.Fatalf("%s: view tally %v != recorder per-step totals %v", path, viewTally[:steps], perStep)
		}
	}
}
