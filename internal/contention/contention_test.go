package contention

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cellprobe"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hash"
	"repro/internal/rng"
)

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

func allStructures(t testing.TB, keys []uint64, seed uint64) []Structure {
	t.Helper()
	lc, err := core.Build(keys, core.Params{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	fks, err := baseline.BuildFKS(keys, true, seed)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := baseline.BuildDM(keys, seed)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := baseline.BuildCuckoo(keys, true, seed)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := baseline.BuildBinarySearch(keys, seed)
	if err != nil {
		t.Fatal(err)
	}
	return []Structure{lc, fks, dm, ck, bs}
}

// TestExactStepMassSumsToProbeProbability: for every structure under uniform
// positive queries, each step's total mass is in [0, 1] and Σ_j Φ_t(j) over
// cells equals the step mass (conservation, Definition 1's Σ_j Φ_t(j) = 1
// for unconditional steps).
func TestExactConservation(t *testing.T) {
	r := rng.New(1)
	keys := distinctKeys(r, 500)
	support := dist.NewUniformSet(keys, "").Support()
	for _, st := range allStructures(t, keys, 2) {
		res, err := Exact(st, support)
		if err != nil {
			t.Fatalf("%s: %v", st.Name(), err)
		}
		for step, m := range res.StepMass {
			if m < -1e-9 || m > 1+1e-9 {
				t.Errorf("%s: step %d mass %v outside [0,1]", st.Name(), step, m)
			}
		}
		// First step always executes for every structure.
		if math.Abs(res.StepMass[0]-1) > 1e-9 {
			t.Errorf("%s: first step mass %v, want 1", st.Name(), res.StepMass[0])
		}
		if res.Probes <= 0 || res.Probes > float64(st.MaxProbes())+1e-9 {
			t.Errorf("%s: probes %v outside (0, %d]", st.Name(), res.Probes, st.MaxProbes())
		}
		if res.MaxStep <= 0 || res.MaxStep > 1+1e-9 {
			t.Errorf("%s: MaxStep %v", st.Name(), res.MaxStep)
		}
		if res.MaxTotal+1e-12 < res.MaxStep {
			t.Errorf("%s: MaxTotal %v < MaxStep %v", st.Name(), res.MaxTotal, res.MaxStep)
		}
	}
}

// TestExactMatchesMonteCarlo compares analytic and empirical contention on a
// small instance where Monte-Carlo estimates are tight.
func TestExactMatchesMonteCarlo(t *testing.T) {
	r := rng.New(3)
	keys := distinctKeys(r, 60)
	q := dist.NewUniformSet(keys, "")
	for _, st := range allStructures(t, keys, 4) {
		ex, err := Exact(st, q.Support())
		if err != nil {
			t.Fatal(err)
		}
		mc, err := MonteCarlo(st, q, 60000, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if mc.Positives != mc.Queries {
			t.Errorf("%s: %d/%d positive answers for positive queries", st.Name(), mc.Positives, mc.Queries)
		}
		if math.Abs(ex.Probes-mc.Probes) > 0.05 {
			t.Errorf("%s: probes exact %v vs mc %v", st.Name(), ex.Probes, mc.Probes)
		}
		// Empirical max contention concentrates around the exact value;
		// allow generous sampling slack.
		if mc.MaxStep < 0.5*ex.MaxStep || mc.MaxStep > 2*ex.MaxStep+0.01 {
			t.Errorf("%s: MaxStep exact %v vs mc %v", st.Name(), ex.MaxStep, mc.MaxStep)
		}
	}
}

// TestTheorem3Ordering is the headline comparison: under uniform positive
// queries the low-contention dictionary's step-contention ratio is a small
// constant while binary search is at the trivial maximum and plain-indexed
// structures sit in between.
func TestTheorem3Ordering(t *testing.T) {
	r := rng.New(6)
	keys := distinctKeys(r, 2048)
	support := dist.NewUniformSet(keys, "").Support()
	sts := allStructures(t, keys, 7)
	ratio := map[string]float64{}
	for _, st := range sts {
		res, err := Exact(st, support)
		if err != nil {
			t.Fatal(err)
		}
		ratio[st.Name()] = res.RatioStep()
		t.Logf("%-10s ratio %.1f (probes %.2f)", st.Name(), res.RatioStep(), res.Probes)
	}
	if ratio["lcds"] > 64 {
		t.Errorf("lcds ratio %.1f not O(1)", ratio["lcds"])
	}
	// Binary search root: contention 1, ratio = cells = n.
	if ratio["bsearch"] < float64(len(keys))-1 {
		t.Errorf("bsearch ratio %.1f, want ≈ n", ratio["bsearch"])
	}
	for _, name := range []string{"fks+rep", "dm", "cuckoo+rep"} {
		if ratio[name] <= ratio["lcds"] {
			t.Errorf("%s ratio %.1f not above lcds %.1f at n=2048", name, ratio[name], ratio["lcds"])
		}
		if ratio[name] >= ratio["bsearch"] {
			t.Errorf("%s ratio %.1f not below bsearch", name, ratio[name])
		}
	}
}

// TestNegativeQueriesAlsoFlat exercises Lemma 10: uniform negative queries
// keep the lcds contention ratio constant too.
func TestNegativeQueriesAlsoFlat(t *testing.T) {
	r := rng.New(8)
	keys := distinctKeys(r, 1024)
	lc, err := core.Build(keys, core.Params{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	neg := dist.NewUniformComplement(hash.MaxKey, keys)
	// The negative distribution's support is the whole universe, so exact
	// analysis over a sampled support would inflate the point-mass data
	// probes by sampling multiplicity; a large Monte-Carlo run estimates
	// the true Φ directly.
	mc, err := MonteCarlo(lc, neg, 400000, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if mc.Positives != 0 {
		t.Errorf("%d positives among negative queries", mc.Positives)
	}
	if ratio := mc.RatioStep(); ratio > 64 {
		t.Errorf("uniform-negative ratio %.1f not O(1)", ratio)
	}
}

// TestPointMassBreaksBaselines: under a point-mass distribution every
// deterministic probe has contention 1 (ratio = cells); the lcds data probe
// is also deterministic per key, so its last steps degrade too — the paper's
// motivation for the §3 lower bound.
func TestPointMassBreaksBaselines(t *testing.T) {
	r := rng.New(11)
	keys := distinctKeys(r, 256)
	q := dist.PointMass{Key: keys[0]}
	for _, st := range allStructures(t, keys, 12) {
		res, err := Exact(st, q.Support())
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxStep < 1-1e-9 {
			t.Errorf("%s: point-mass max step contention %v, want 1", st.Name(), res.MaxStep)
		}
	}
}

func TestProfileMatchesExact(t *testing.T) {
	r := rng.New(13)
	keys := distinctKeys(r, 300)
	support := dist.NewUniformSet(keys, "").Support()
	lc, err := core.Build(keys, core.Params{}, 14)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(lc, support)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exact(lc, support)
	if err != nil {
		t.Fatal(err)
	}
	maxProf := 0.0
	sum := 0.0
	for _, v := range prof {
		sum += v
		if v > maxProf {
			maxProf = v
		}
	}
	if math.Abs(maxProf-res.MaxTotal) > 1e-9 {
		t.Errorf("profile max %v vs exact MaxTotal %v", maxProf, res.MaxTotal)
	}
	if math.Abs(sum-res.Probes) > 1e-6 {
		t.Errorf("profile sum %v vs expected probes %v", sum, res.Probes)
	}
}

func TestSortedDescendingAndQuantiles(t *testing.T) {
	prof := []float64{0.1, 0.5, 0.3, 0.2}
	sorted := SortedDescending(prof)
	want := []float64{0.5, 0.3, 0.2, 0.1}
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("sorted = %v", sorted)
		}
	}
	if prof[0] != 0.1 {
		t.Error("SortedDescending mutated input")
	}
	qs := Quantiles(sorted, []float64{0, 0.5, 1})
	if qs[0] != 0.5 || qs[2] != 0.1 {
		t.Errorf("quantiles = %v", qs)
	}
}

func TestFlatnessExtremes(t *testing.T) {
	flat := FlatnessOf([]float64{1, 1, 1, 1})
	if math.Abs(flat.Gini) > 1e-12 || math.Abs(flat.NormalizedEntropy-1) > 1e-12 || flat.MaxOverMean != 1 {
		t.Errorf("flat profile: %+v", flat)
	}
	spike := FlatnessOf([]float64{0, 0, 0, 8})
	if spike.Gini < 0.74 || spike.NormalizedEntropy > 1e-12 || spike.MaxOverMean != 4 {
		t.Errorf("spike profile: %+v", spike)
	}
	if FlatnessOf(nil).MaxOverMean != 1 {
		t.Error("empty profile not flat extreme")
	}
	if FlatnessOf([]float64{0, 0}).MaxOverMean != 1 {
		t.Error("zero profile not flat extreme")
	}
}

// TestFlatnessOrdersStructures: the lcds profile must be flatter than
// binary search's by every metric.
func TestFlatnessOrdersStructures(t *testing.T) {
	r := rng.New(21)
	keys := distinctKeys(r, 512)
	lc, err := core.Build(keys, core.Params{}, 22)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := baseline.BuildBinarySearch(keys, 22)
	if err != nil {
		t.Fatal(err)
	}
	support := dist.NewUniformSet(keys, "").Support()
	profLC, err := Profile(lc, support)
	if err != nil {
		t.Fatal(err)
	}
	profBS, err := Profile(bs, support)
	if err != nil {
		t.Fatal(err)
	}
	fLC, fBS := FlatnessOf(profLC), FlatnessOf(profBS)
	if fLC.Gini >= fBS.Gini {
		t.Errorf("lcds Gini %v not below bsearch %v", fLC.Gini, fBS.Gini)
	}
	if fLC.NormalizedEntropy <= fBS.NormalizedEntropy {
		t.Errorf("lcds entropy %v not above bsearch %v", fLC.NormalizedEntropy, fBS.NormalizedEntropy)
	}
	if fLC.MaxOverMean >= fBS.MaxOverMean {
		t.Errorf("lcds peak/mean %v not below bsearch %v", fLC.MaxOverMean, fBS.MaxOverMean)
	}
}

func TestMonteCarloErrorsSurface(t *testing.T) {
	r := rng.New(15)
	keys := distinctKeys(r, 64)
	lc, err := core.Build(keys, core.Params{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every z value so Contains fails. The z row is a block row of
	// r values in blocks of ⌊s/r⌋ columns; Set on a block row panics.
	rep := lc.Report()
	bad := make([]cellprobe.Cell, rep.R)
	for i := range bad {
		bad[i] = cellprobe.Cell{Lo: ^uint64(0)}
	}
	lc.Table().SetBlockRow(2*4, bad, rep.S/rep.R)
	if _, err := MonteCarlo(lc, dist.NewUniformSet(keys, ""), 100, rng.New(17)); err == nil {
		t.Error("corrupt table did not surface through MonteCarlo")
	}
}

// TestExactWorkersBitIdentical: the parallel analyzer's contract is that
// worker count changes wall clock only — every float in the result must be
// bit-identical to the serial (workers = 1) path, for the dictionary and
// for a baseline with a different spec shape.
func TestExactWorkersBitIdentical(t *testing.T) {
	keys := distinctKeys(rng.New(41), 1200)
	for _, st := range allStructures(t, keys, 4) {
		support := dist.NewUniformSet(keys, "").Support()
		serial, err := ExactWorkers(st, support, 1)
		if err != nil {
			t.Fatalf("%s serial: %v", st.Name(), err)
		}
		for _, workers := range []int{2, 3, 4, 7, 16} {
			par, err := ExactWorkers(st, support, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", st.Name(), workers, err)
			}
			if par.MaxStep != serial.MaxStep || par.MaxTotal != serial.MaxTotal || par.Probes != serial.Probes {
				t.Fatalf("%s workers=%d diverged: maxStep %v vs %v, maxTotal %v vs %v, probes %v vs %v",
					st.Name(), workers, par.MaxStep, serial.MaxStep,
					par.MaxTotal, serial.MaxTotal, par.Probes, serial.Probes)
			}
			if len(par.StepMass) != len(serial.StepMass) {
				t.Fatalf("%s workers=%d: %d steps vs %d", st.Name(), workers, len(par.StepMass), len(serial.StepMass))
			}
			for i := range par.StepMass {
				if par.StepMass[i] != serial.StepMass[i] {
					t.Fatalf("%s workers=%d: step %d mass %v vs %v",
						st.Name(), workers, i, par.StepMass[i], serial.StepMass[i])
				}
			}
		}
	}
}

// TestExactWorkersErrorDeterministic: an invalid spec must surface the same
// error regardless of worker count (the lowest-indexed bad key wins).
func TestExactWorkersErrorDeterministic(t *testing.T) {
	keys := distinctKeys(rng.New(42), 300)
	st, err := core.Build(keys, core.Params{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Wrap the structure so Validate sees a table half the real size:
	// every spec with a span in the upper half becomes invalid, and the
	// first such key in support order must win whatever the worker count.
	bad := shrunkTable{Structure: st}
	support := dist.NewUniformSet(keys, "").Support()
	serialErr := func() string {
		_, err := ExactWorkers(bad, support, 1)
		if err == nil {
			t.Fatal("shrunk table accepted")
		}
		return err.Error()
	}()
	for _, workers := range []int{2, 5, 9} {
		_, err := ExactWorkers(bad, support, workers)
		if err == nil {
			t.Fatalf("workers=%d: shrunk table accepted", workers)
		}
		if err.Error() != serialErr {
			t.Fatalf("workers=%d error %q, want %q", workers, err.Error(), serialErr)
		}
	}
}

// shrunkTable reports a table half the real size so that late probe spans
// fail validation.
type shrunkTable struct{ Structure }

func (s shrunkTable) Table() *cellprobe.Table {
	real := s.Structure.Table()
	return cellprobe.New(1, real.Size()/2)
}
