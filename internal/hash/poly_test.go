package hash

import (
	"math"
	"testing"

	"repro/internal/modarith"
	"repro/internal/rng"
)

func TestPolyRange(t *testing.T) {
	r := rng.New(1)
	for _, m := range []uint64{1, 2, 7, 1024, 1 << 40} {
		h := NewPoly(r, 4, m)
		for i := 0; i < 500; i++ {
			if v := h.Eval(r.Uint64n(MaxKey)); v >= m {
				t.Fatalf("Eval out of range: %d ≥ %d", v, m)
			}
		}
	}
}

func TestPolyDeterministic(t *testing.T) {
	h := NewPoly(rng.New(2), 4, 1000)
	x := uint64(123456789)
	a := h.Eval(x)
	for i := 0; i < 10; i++ {
		if h.Eval(x) != a {
			t.Fatal("Eval not deterministic")
		}
	}
}

func TestPolyFromCoefMatches(t *testing.T) {
	h := NewPoly(rng.New(3), 4, 999)
	h2 := PolyFromCoef(h.Coef, h.M)
	r := rng.New(4)
	for i := 0; i < 1000; i++ {
		x := r.Uint64n(MaxKey)
		if h.Eval(x) != h2.Eval(x) {
			t.Fatalf("reconstructed poly disagrees at %d", x)
		}
	}
}

func TestPolyEvalFieldConsistency(t *testing.T) {
	h := NewPoly(rng.New(5), 4, 77)
	r := rng.New(6)
	for i := 0; i < 1000; i++ {
		x := r.Uint64n(MaxKey)
		if h.EvalField(x)%h.M != h.Eval(x) {
			t.Fatal("EvalField % M != Eval")
		}
	}
}

// TestPolyPairwiseCollisions verifies the pairwise-independence consequence
// Pr[h(x) = h(y)] ≈ 1/m over random draws of h for fixed distinct x, y.
func TestPolyPairwiseCollisions(t *testing.T) {
	r := rng.New(7)
	const m = 64
	const trials = 40000
	collisions := 0
	x, y := uint64(1234567), uint64(7654321)
	for i := 0; i < trials; i++ {
		h := NewPoly(r, 2, m)
		if h.Eval(x) == h.Eval(y) {
			collisions++
		}
	}
	got := float64(collisions) / trials
	want := 1.0 / m
	sigma := math.Sqrt(want * (1 - want) / trials)
	if math.Abs(got-want) > 5*sigma {
		t.Errorf("collision rate %.5f, want %.5f ± %.5f", got, want, 5*sigma)
	}
}

// TestPolyFourwiseUniformity checks that for 4 fixed points the joint image
// under a random h ∈ H^4_m looks uniform (chi-squared on the first point and
// on pairwise XOR of outputs as a cheap surrogate for full joint testing).
func TestPolyFourwiseUniformity(t *testing.T) {
	r := rng.New(8)
	const m = 8
	const trials = 64000
	points := []uint64{3, 1 << 20, 1 << 40, (1 << 55) + 9}
	// Count the joint outcome of two of the four points: m*m cells.
	counts := make([]int, m*m)
	for i := 0; i < trials; i++ {
		h := NewPoly(r, 4, m)
		a := h.Eval(points[0])
		b := h.Eval(points[2])
		counts[a*m+b]++
	}
	expected := float64(trials) / float64(m*m)
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 63 degrees of freedom, 99.9% quantile ≈ 103.4
	if chi2 > 103.4 {
		t.Errorf("joint chi2 = %.1f exceeds 99.9%% quantile", chi2)
	}
}

func TestDMDefinition(t *testing.T) {
	rand := rng.New(9)
	h := NewDM(rand, 4, 32, 1000)
	r2 := rng.New(10)
	for i := 0; i < 1000; i++ {
		x := r2.Uint64n(MaxKey)
		want := (h.F.Eval(x) + h.Z[h.G.Eval(x)]) % h.M()
		if got := h.Eval(x); got != want {
			t.Fatalf("DM.Eval(%d) = %d, want %d", x, got, want)
		}
		if h.Eval(x) >= h.M() {
			t.Fatalf("DM.Eval out of range")
		}
	}
}

func TestDMModAgreesWithDirectReduction(t *testing.T) {
	rand := rng.New(11)
	const s, m = 1200, 100 // m | s
	h := NewDM(rand, 4, 16, s)
	hp, err := h.Mod(m)
	if err != nil {
		t.Fatal(err)
	}
	r2 := rng.New(12)
	for i := 0; i < 5000; i++ {
		x := r2.Uint64n(MaxKey)
		if hp.Eval(x) != h.Eval(x)%m {
			t.Fatalf("Mod disagrees at x=%d: %d vs %d", x, hp.Eval(x), h.Eval(x)%m)
		}
	}
}

func TestDMModRejectsNonDivisor(t *testing.T) {
	h := NewDM(rng.New(13), 3, 8, 100)
	if _, err := h.Mod(7); err == nil {
		t.Error("Mod(7) of range 100 did not fail")
	}
	if _, err := h.Mod(0); err == nil {
		t.Error("Mod(0) did not fail")
	}
}

func TestLoadsMatchesNaive(t *testing.T) {
	r := rng.New(14)
	S := make([]uint64, 500)
	for i := range S {
		S[i] = r.Uint64n(MaxKey)
	}
	h := NewPoly(r, 3, 37)
	loads := Loads(S, h.Eval, 37)
	total := 0
	for i, l := range loads {
		total += l
		count := 0
		for _, x := range S {
			if h.Eval(x) == uint64(i) {
				count++
			}
		}
		if count != l {
			t.Fatalf("loads[%d] = %d, want %d", i, l, count)
		}
	}
	if total != len(S) {
		t.Fatalf("loads sum to %d, want %d", total, len(S))
	}
}

func TestMaxLoadAndSumSquares(t *testing.T) {
	loads := []int{0, 3, 1, 4, 1, 5}
	if got := MaxLoad(loads); got != 5 {
		t.Errorf("MaxLoad = %d, want 5", got)
	}
	if got := SumSquares(loads); got != 9+1+16+1+25 {
		t.Errorf("SumSquares = %d, want 52", got)
	}
	if MaxLoad(nil) != 0 || SumSquares(nil) != 0 {
		t.Error("empty loads not handled")
	}
}

// TestLemma9Part1 — g from H^d_r keeps every load ≤ c·n/r with high
// probability (Lemma 9(1)), for c = 2e, d = 4, r = √n.
func TestLemma9Part1(t *testing.T) {
	const n = 4096
	const c = 2 * math.E
	r := uint64(64) // n^(1/2)
	bound := int(c * float64(n) / float64(r))
	rand := rng.New(15)
	S := distinctKeys(rand, n)
	ok := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		g := NewPoly(rand, 4, r)
		if MaxLoad(Loads(S, g.Eval, int(r))) <= bound {
			ok++
		}
	}
	if ok < trials*9/10 {
		t.Errorf("Lemma 9(1) held in only %d/%d trials (bound %d)", ok, trials, bound)
	}
}

// TestLemma9Part3 — the FKS condition Σℓ² ≤ s holds with probability ≥ 1/2
// for h ∈ R^d_{r,s}, s = βn, β ≥ 2 (Lemma 9(3) gives 1 − 1/(β(β−1))).
func TestLemma9Part3(t *testing.T) {
	const n = 2000
	const beta = 4
	const s = beta * n
	rand := rng.New(16)
	S := distinctKeys(rand, n)
	ok := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		h := NewDM(rand, 4, 45, s)
		if SumSquares(Loads(S, h.Eval, s)) <= s {
			ok++
		}
	}
	// Expected success ≥ 1 − 1/(β(β−1)) = 11/12; demand at least 2/3.
	if ok < trials*2/3 {
		t.Errorf("FKS condition held in only %d/%d trials", ok, trials)
	}
}

func distinctKeys(r *rng.RNG, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := r.Uint64n(MaxKey)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestPolyEval2MatchesPoly: the query's evaluation of f and g from the
// coefficients it read, in one fused loop and reduced to each range, is
// exactly each Poly's own Eval.
func TestPolyEval2MatchesPoly(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 200; trial++ {
		d := 1 + r.Intn(6)
		f := NewPoly(r, d, 1+r.Uint64n(1<<40))
		g := NewPoly(r, d, 1+r.Uint64n(1<<40))
		for q := 0; q < 20; q++ {
			x := r.Uint64n(MaxKey)
			fv, gv := modarith.PolyEval2(f.Coef, g.Coef, x)
			if fv%f.M != f.Eval(x) || gv%g.M != g.Eval(x) {
				t.Fatalf("d=%d x=%d: fused (%d, %d), want (%d, %d)", d, x, fv%f.M, gv%g.M, f.Eval(x), g.Eval(x))
			}
		}
	}
}
