package lcds

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cellprobe"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/rng"
	"repro/internal/scheme"

	_ "repro/internal/baseline" // register the comparison roster
)

// The wavefront batch path promises more than equal answers: each query must
// probe exactly the cells — at exactly the step numbers — that the
// sequential path would probe for it, so the paper's probe distributions
// (and with them every contention bound) are untouched by batching. This
// battery checks that promise cell by cell across replica layouts and
// wavefront widths, on the static core, the whole registered roster, and
// the dynamic dictionary's buffered epochs.

// captureScalar answers each key sequentially with per-query capture on,
// returning answers and per-query probe logs.
func captureScalar(t *testing.T, contains func(x uint64, sc *core.QueryScratch) (bool, error), keys []uint64) ([]bool, [][]cellprobe.StepCell) {
	t.Helper()
	ans := make([]bool, len(keys))
	logs := make([][]cellprobe.StepCell, len(keys))
	sc := new(core.QueryScratch)
	for i, x := range keys {
		sc.StartCapture()
		ok, err := contains(x, sc)
		if err != nil {
			t.Fatalf("scalar query %d (key %d): %v", i, x, err)
		}
		ans[i] = ok
		logs[i] = append([]cellprobe.StepCell(nil), sc.StopCaptureProbes()...)
	}
	return ans, logs
}

// requireSameLogs asserts per-query probe-cell equality between the scalar
// and batch captures.
func requireSameLogs(t *testing.T, scalar, batch [][]cellprobe.StepCell, label string) {
	t.Helper()
	if len(batch) < len(scalar) {
		// Queries a batch never admitted (buffer-resolved) may be absent
		// from the tail; pad the view.
		batch = append(append([][]cellprobe.StepCell(nil), batch...), make([][]cellprobe.StepCell, len(scalar)-len(batch))...)
	}
	for i := range scalar {
		a, b := scalar[i], batch[i]
		if len(a) != len(b) {
			t.Fatalf("%s: query %d probed %d cells scalar vs %d batch", label, i, len(a), len(b))
		}
		for s := range a {
			if a[s] != b[s] {
				t.Fatalf("%s: query %d probe %d was %+v scalar vs %+v batch", label, i, s, a[s], b[s])
			}
		}
	}
}

// TestBatchWavefrontCellEquivalence: on the static core — every replica
// layout × a sweep of wavefront widths — the batch path must return the
// scalar answers, probe the scalar cells at the scalar steps, and consume
// the shared random stream to exactly the scalar position (checked by
// comparing the next raw draw of both sources).
func TestBatchWavefrontCellEquivalence(t *testing.T) {
	stored := testKeys(2048, 21)
	probes := append(append([]uint64(nil), stored[:512]...), testKeys(512, 22)...)

	// "compact" is the block layout as Read reinstalls it from serialized
	// construction state: the same one-value-per-replica rows, written by a
	// second code path.
	layouts := []struct {
		name      string
		p         core.Params
		roundTrip bool
	}{
		{"block", core.Params{}, false},
		{"strided", core.Params{Strided: true}, false},
		{"compact", core.Params{}, true},
	}
	for _, lay := range layouts {
		d, err := core.Build(stored, lay.p, 21)
		if err != nil {
			t.Fatal(err)
		}
		if lay.roundTrip {
			var buf bytes.Buffer
			if _, err := d.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if d, err = core.Read(&buf); err != nil {
				t.Fatal(err)
			}
		}
		rs := rng.New(77)
		want, wantLogs := captureScalar(t, func(x uint64, sc *core.QueryScratch) (bool, error) {
			return d.ContainsScratch(x, rs, sc)
		}, probes)

		for _, g := range []int{1, 2, 3, 8, 16, 64} {
			t.Run(fmt.Sprintf("%s/G=%d", lay.name, g), func(t *testing.T) {
				d.SetBatchGroup(g)
				defer d.SetBatchGroup(0)
				rb := rng.New(77)
				out := make([]bool, len(probes))
				sc := new(core.QueryScratch)
				sc.StartBatchCapture()
				if err := d.ContainsBatch(probes, out, rb, sc); err != nil {
					t.Fatal(err)
				}
				logs := sc.StopBatchCapture()
				for i := range probes {
					if out[i] != want[i] {
						t.Fatalf("query %d (key %d): batch=%v scalar=%v", i, probes[i], out[i], want[i])
					}
				}
				requireSameLogs(t, wantLogs, logs, lay.name)
				// Whole-batch stream identity: both sources must sit at the
				// same position, so batches compose with scalar queries on a
				// shared stream.
				rs2, rb2 := rng.New(77), rng.New(77)
				scalarDrain(t, d, probes, rs2)
				if err := d.ContainsBatch(probes, out, rb2, nil); err != nil {
					t.Fatal(err)
				}
				if a, b := rs2.Uint64(), rb2.Uint64(); a != b {
					t.Fatalf("random stream diverged: next draw %d scalar vs %d batch", a, b)
				}
			})
		}
	}
}

func scalarDrain(t *testing.T, d *core.Dict, keys []uint64, r rng.Source) {
	t.Helper()
	sc := new(core.QueryScratch)
	for _, x := range keys {
		if _, err := d.ContainsScratch(x, r, sc); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchRosterEquivalence runs every registered scheme through the batch
// helper — the real wavefront for structures that have one, a sequential
// loop otherwise — and requires agreement with a sequential reference run
// on an identically seeded source, plus ground-truth membership for exact
// schemes.
func TestBatchRosterEquivalence(t *testing.T) {
	stored := testKeys(512, 31)
	probes := append(append([]uint64(nil), stored[:128]...), testKeys(128, 32)...)
	member := make(map[uint64]bool, len(stored))
	for _, k := range stored {
		member[k] = true
	}

	batchContains := func(s scheme.Scheme, keys []uint64, out []bool, r rng.Source) error {
		if cd, ok := s.(*core.Dict); ok {
			return cd.ContainsBatch(keys, out, r, nil)
		}
		for i, x := range keys {
			ok, err := s.Contains(x, r)
			if err != nil {
				return err
			}
			out[i] = ok
		}
		return nil
	}

	for _, info := range scheme.Infos() {
		t.Run(info.Name, func(t *testing.T) {
			s, err := info.Build(stored, 31)
			if err != nil {
				t.Fatal(err)
			}
			rs := rng.New(99)
			want := make([]bool, len(probes))
			for i, x := range probes {
				ok, err := s.Contains(x, rs)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = ok
			}
			rb := rng.New(99)
			out := make([]bool, len(probes))
			if err := batchContains(s, probes, out, rb); err != nil {
				t.Fatal(err)
			}
			for i, x := range probes {
				if out[i] != want[i] {
					t.Fatalf("key %d: batch=%v sequential=%v", x, out[i], want[i])
				}
				if !info.Approximate && out[i] != member[x] {
					t.Fatalf("key %d: answer %v, membership %v", x, out[i], member[x])
				}
			}
		})
	}
}

// TestBatchDynamicBufferedEquivalence: on a dynamic dictionary whose buffer
// holds live inserts and tombstones, the batch path must resolve buffered
// keys identically, hand the static wavefront the rest in sequential order,
// and leave the shared random stream at the sequential position. Static
// probe cells are compared via batch capture (buffer-resolved queries
// record no static probes on either path).
func TestBatchDynamicBufferedEquivalence(t *testing.T) {
	base := testKeys(2048, 41)
	extra := testKeys(256, 42)
	d, err := dynamic.New(base, dynamic.Params{Epsilon: 0.5, SyncRebuild: true}, 41)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range extra {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range base[:64] { // tombstone snapshot keys into the buffer
		if _, err := d.Delete(k); err != nil {
			t.Fatal(err)
		}
	}

	probes := append(append([]uint64(nil), base[:256]...), extra[:128]...)
	probes = append(probes, testKeys(128, 43)...)

	rs := rng.New(55)
	want, wantLogs := captureScalar(t, func(x uint64, sc *core.QueryScratch) (bool, error) {
		return d.ContainsScratch(x, rs, sc)
	}, probes)

	rb := rng.New(55)
	out := make([]bool, len(probes))
	sc := new(core.QueryScratch)
	sc.StartBatchCapture()
	if err := d.ContainsBatchScratch(probes, out, rb, sc); err != nil {
		t.Fatal(err)
	}
	logs := sc.StopBatchCapture()
	for i := range probes {
		if out[i] != want[i] {
			t.Fatalf("query %d (key %d): batch=%v scalar=%v", i, probes[i], out[i], want[i])
		}
	}
	requireSameLogs(t, wantLogs, logs, "dynamic")
	if a, b := rs.Uint64(), rb.Uint64(); a != b {
		t.Fatalf("random stream diverged: next draw %d scalar vs %d batch", a, b)
	}
}

// TestBatchDynamicMidRebuild triggers a background rebuild and answers
// batches while it may be in flight: every answer must match current
// membership regardless of which epoch the batch pins.
func TestBatchDynamicMidRebuild(t *testing.T) {
	base := testKeys(4096, 51)
	extra := testKeys(2048, 52)
	d, err := dynamic.New(base, dynamic.Params{Epsilon: 0.1}, 51)
	if err != nil {
		t.Fatal(err)
	}
	member := make(map[uint64]bool, len(base)+len(extra))
	for _, k := range base {
		member[k] = true
	}
	probes := append(append([]uint64(nil), base[:512]...), extra[:512]...)
	r := rng.New(66)
	out := make([]bool, len(probes))
	inserted := 0
	for _, k := range extra {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
		member[k] = true
		inserted++
		if inserted%256 != 0 {
			continue
		}
		// A rebuild is plausibly in flight right now; the batch pins
		// whatever epoch is current and must still answer exactly.
		if err := d.ContainsBatch(probes, out, r); err != nil {
			t.Fatal(err)
		}
		for i, x := range probes {
			if out[i] != member[x] {
				t.Fatalf("after %d inserts: key %d = %v, want %v (rebuilding=%v)",
					inserted, x, out[i], member[x], d.Rebuilding())
			}
		}
	}
	d.Quiesce()
	if err := d.ContainsBatch(probes, out, r); err != nil {
		t.Fatal(err)
	}
	for i, x := range probes {
		if out[i] != member[x] {
			t.Fatalf("after quiesce: key %d = %v, want %v", x, out[i], member[x])
		}
	}
}
