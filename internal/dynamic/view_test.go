package dynamic

import (
	"slices"
	"strings"
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

// TestBufferViewMatchesRecorder is the buffer's half of the view/ProbeTo
// equivalence. The buffer holds inserts, tombstones, vacated slots of both
// kinds and a chain that wraps past the last slot; the same keys are
// answered by batch and sequentially, with the buffer table unobserved (the
// direct view, with its look-ahead on the batch path) and with a Recorder
// attached (every buffer probe through ProbeTo). Every route must give the
// same answers, per-step tallies (the short tally clamps the longer chains
// into its last slot), Stats.ReadProbes and next draw of the source; the
// recorder must see the tally's buffer steps. Both a *rng.RNG and a
// concrete *rng.Stream source are run.
func TestBufferViewMatchesRecorder(t *testing.T) {
	keys := distinctKeys(rng.New(91), 4000)
	snap, rest := keys[:64], keys[64:]
	d, err := New(snap, Params{Epsilon: 0.5, SyncRebuild: true}, 92)
	if err != nil {
		t.Fatal(err)
	}
	b := d.cur.Load().buf
	h := b.view(nil).h
	var wrap, other []uint64 // wrap: homed at the last slot
	for _, k := range rest {
		if int(h.Eval(k)) == b.width-1 {
			wrap = append(wrap, k)
		} else {
			other = append(other, k)
		}
	}
	if len(wrap) < 4 {
		t.Fatalf("only %d keys homed at the last slot", len(wrap))
	}
	wrap, absent := wrap[:4], other[20:60]
	mutate := func(del bool, ks ...uint64) {
		t.Helper()
		for _, k := range ks {
			var err error
			if del {
				_, err = d.Delete(k)
			} else {
				_, err = d.Insert(k)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	mutate(false, wrap[:3]...) // slots width−1, 0, 1: wrap[3]'s chain wraps
	mutate(false, other[:8]...)
	mutate(false, other[8:12]...)
	mutate(true, other[8:12]...) // vacated inserts
	mutate(true, snap[:6]...)    // tombstones
	mutate(true, snap[6:9]...)
	mutate(false, snap[6:9]...) // vacated tombstones
	if _, k := unpackSlot(b.slots[0].Load()); k != wrap[1] || d.Stats().Epoch != 1 {
		t.Fatal("the wrapped chain or the epoch is not as built")
	}
	var qs []uint64
	for range 3 {
		qs = append(qs, snap...)
		qs = append(qs, wrap...)
		qs = append(qs, other[:12]...)
		qs = append(qs, absent...)
	}
	rng.New(94).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	want := func(x uint64) bool {
		return slices.Contains(snap[6:], x) || slices.Contains(wrap[:3], x) || slices.Contains(other[:8], x)
	}
	steps := d.Base().MaxProbes()
	tallyLen := steps + 3 // buffer steps 2 and on clamp into the last slot

	type result struct {
		out    []bool
		tally  []uint64
		probes uint64
		next   uint64
		rec    []uint64 // the recorder's buffer probes per tally slot, or nil
	}
	run := func(source string, batch, record bool) result {
		var r rng.Source = rng.New(93)
		if source == "stream" {
			r = new(rng.Stream)
		}
		var rec *cellprobe.Recorder
		if record {
			rec = cellprobe.NewRecorder(d.BufferTable().Size())
			d.BufferTable().Attach(rec)
			defer d.BufferTable().Detach()
		}
		if observed := d.BufferTable().CellView() == nil; observed != record {
			t.Fatalf("buffer table observed = %v, want %v", observed, record)
		}
		var sc core.QueryScratch
		res := result{out: make([]bool, len(qs)), tally: make([]uint64, tallyLen)}
		sc.SetTally(res.tally)
		before := d.Stats().ReadProbes
		if batch {
			if err := d.ContainsBatchScratch(qs, res.out, r, &sc); err != nil {
				t.Fatal(err)
			}
		} else {
			for i, x := range qs {
				ok, err := d.ContainsScratch(x, r, &sc)
				if err != nil {
					t.Fatal(err)
				}
				res.out[i] = ok
			}
		}
		res.probes = d.Stats().ReadProbes - before
		res.next = r.Uint64()
		if rec != nil {
			res.rec = make([]uint64, tallyLen-steps)
			for s, row := range rec.PerStep {
				for _, c := range row {
					res.rec[min(s, len(res.rec)-1)] += c
				}
			}
		}
		return res
	}
	for _, source := range []string{"rng", "stream"} {
		ref := run(source, false, true) // sequential, every probe through ProbeTo
		for i, x := range qs {
			if ref.out[i] != want(x) {
				t.Fatalf("%s: Contains(%d) = %v, want %v", source, x, ref.out[i], want(x))
			}
		}
		if !slices.Equal(ref.tally[steps:], ref.rec) {
			t.Fatalf("%s: buffer tally %v != recorder per-step totals %v", source, ref.tally[steps:], ref.rec)
		}
		if ref.tally[tallyLen-1] == 0 {
			t.Fatalf("%s: no buffer probe reached the clamped slot", source)
		}
		for _, route := range []struct {
			name          string
			batch, record bool
		}{
			{"batch/view", true, false},
			{"batch/recorder", true, true},
			{"sequential/view", false, false},
		} {
			got := run(source, route.batch, route.record)
			switch {
			case !slices.Equal(got.out, ref.out):
				t.Errorf("%s %s: answers differ from the sequential recorder route", source, route.name)
			case !slices.Equal(got.tally, ref.tally):
				t.Errorf("%s %s: tally %v, want %v", source, route.name, got.tally, ref.tally)
			case got.probes != ref.probes:
				t.Errorf("%s %s: %d read probes, want %d", source, route.name, got.probes, ref.probes)
			case got.next != ref.next:
				t.Errorf("%s %s: the source's next draw differs", source, route.name)
			}
		}
	}

	// A full chain: every slot taken, none by x. Both routes must report
	// the wrapped scan rather than loop or answer.
	for i := range b.slots {
		w, _ := packSlot(slotInserted, rest[i])
		b.slots[i].Store(w)
	}
	x := keys[len(keys)-1]
	for _, record := range []bool{false, true} {
		if record {
			d.BufferTable().Attach(cellprobe.NewRecorder(d.BufferTable().Size()))
		}
		var sc core.QueryScratch
		errBatch := d.ContainsBatchScratch([]uint64{snap[0], x}, make([]bool, 2), rng.New(95), &sc)
		_, errSeq := d.ContainsScratch(x, rng.New(95), &sc)
		for _, err := range []error{errBatch, errSeq} {
			if err == nil || !strings.Contains(err.Error(), "dynamic: buffer scan wrapped") {
				t.Errorf("recorder %v: full chain gave %v, want the wrapped-scan error", record, err)
			}
		}
		d.BufferTable().Detach()
	}
}
