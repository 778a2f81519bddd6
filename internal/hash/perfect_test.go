package hash

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestPairwiseRange(t *testing.T) {
	r := rng.New(20)
	for _, m := range []uint64{1, 2, 9, 100} {
		h := NewPairwise(r, m)
		for i := 0; i < 200; i++ {
			if v := h.Eval(r.Uint64n(MaxKey)); v >= m {
				t.Fatalf("Pairwise.Eval out of range %d ≥ %d", v, m)
			}
		}
	}
}

func TestPairwiseCollisionRate(t *testing.T) {
	r := rng.New(21)
	const m = 100
	const trials = 40000
	x, y := uint64(42), uint64(99999999)
	collisions := 0
	for i := 0; i < trials; i++ {
		h := NewPairwise(r, m)
		if h.Eval(x) == h.Eval(y) {
			collisions++
		}
	}
	got := float64(collisions) / trials
	want := 1.0 / m
	sigma := math.Sqrt(want * (1 - want) / trials)
	if math.Abs(got-want) > 5*sigma {
		t.Errorf("collision rate %.5f, want %.5f", got, want)
	}
}

func TestFindPerfectInjective(t *testing.T) {
	r := rng.New(22)
	for _, n := range []int{0, 1, 2, 5, 17, 40} {
		keys := distinctKeys(r, n)
		m := uint64(n * n)
		if m == 0 {
			m = 1
		}
		h, tries, err := FindPerfect(r, keys, m, 200, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tries < 1 {
			t.Fatalf("n=%d: tries = %d", n, tries)
		}
		seen := map[uint64]bool{}
		for _, x := range keys {
			v := h.Eval(x)
			if v >= m {
				t.Fatalf("n=%d: value %d out of range %d", n, v, m)
			}
			if seen[v] {
				t.Fatalf("n=%d: not injective", n)
			}
			seen[v] = true
		}
	}
}

func TestFindPerfectExpectedTries(t *testing.T) {
	// With m = n² the success probability per trial is ≥ 1/2, so the mean
	// trial count over many runs must be well under 3.
	r := rng.New(23)
	const n = 30
	totalTries := 0
	const runs = 200
	for i := 0; i < runs; i++ {
		keys := distinctKeys(r, n)
		_, tries, err := FindPerfect(r, keys, n*n, 500, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalTries += tries
	}
	if mean := float64(totalTries) / runs; mean > 3 {
		t.Errorf("mean tries = %.2f, want ≤ 3 (expected ≤ 2)", mean)
	}
}

func TestFindPerfectImpossible(t *testing.T) {
	r := rng.New(24)
	keys := distinctKeys(r, 5)
	if _, _, err := FindPerfect(r, keys, 4, 10, nil); err == nil {
		t.Error("5 keys into range 4 did not fail")
	}
}

func TestFindPerfectGivesUp(t *testing.T) {
	// 3 keys into range 3 is possible but rare enough that 1 try may fail;
	// with maxTries = 0 semantics (loop never runs) we must get an error.
	r := rng.New(25)
	keys := distinctKeys(r, 3)
	if _, _, err := FindPerfect(r, keys, 9, 0, nil); err == nil {
		t.Error("maxTries=0 did not fail")
	}
}

// TestFindPerfectSharedScratch: a scratch longer than the range, left
// dirty by earlier searches, finds the same function in the same number of
// tries as a fresh one, for ranges of every size up to its length.
func TestFindPerfectSharedScratch(t *testing.T) {
	shared := make([]bool, 400)
	for i := range shared {
		shared[i] = true
	}
	for l := 1; l <= 20; l++ {
		keys := distinctKeys(rng.New(uint64(l)), l)
		m := uint64(l * l)
		want, wantTries, wantErr := FindPerfect(rng.New(uint64(l)+50), keys, m, 200, nil)
		got, gotTries, gotErr := FindPerfect(rng.New(uint64(l)+50), keys, m, 200, shared)
		if got != want || gotTries != wantTries || (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("ℓ=%d: shared scratch gave %+v in %d tries (%v), fresh %+v in %d (%v)",
				l, got, gotTries, gotErr, want, wantTries, wantErr)
		}
	}
}

func TestIsInjectiveOnScratchReuse(t *testing.T) {
	r := rng.New(26)
	keys := distinctKeys(r, 10)
	h, _, err := FindPerfect(r, keys, 100, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]bool, 100)
	if !h.IsInjectiveOn(keys, scratch) {
		t.Error("injective hash reported non-injective with scratch")
	}
	// Scratch must be reset between calls: run twice.
	if !h.IsInjectiveOn(keys, scratch) {
		t.Error("scratch not reset between calls")
	}
	dup := append(append([]uint64{}, keys...), keys[0])
	if h.IsInjectiveOn(dup, scratch) {
		t.Error("duplicate key reported injective")
	}
}

func TestMultShift(t *testing.T) {
	r := rng.New(27)
	for _, k := range []uint{0, 1, 4, 16, 32} {
		h := NewMultShift(r, k)
		if h.A%2 == 0 {
			t.Fatal("multiplier must be odd")
		}
		if h.Range() != 1<<k {
			t.Fatalf("Range = %d, want %d", h.Range(), 1<<k)
		}
		for i := 0; i < 500; i++ {
			if v := h.Eval(r.Uint64()); v >= h.Range() {
				t.Fatalf("k=%d: value %d out of range", k, v)
			}
		}
	}
}

func TestMultShiftCollisionRate(t *testing.T) {
	r := rng.New(28)
	const k = 7 // range 128
	const trials = 40000
	x, y := uint64(1001), uint64(123456789012345)
	collisions := 0
	for i := 0; i < trials; i++ {
		h := NewMultShift(r, k)
		if h.Eval(x) == h.Eval(y) {
			collisions++
		}
	}
	// 2-universal: Pr ≤ 2/2^k = 1/64. Allow slack up to 3/128.
	if rate := float64(collisions) / trials; rate > 3.0/128 {
		t.Errorf("collision rate %.5f exceeds 2-universal bound slack", rate)
	}
}

func BenchmarkPolyEvalD4(b *testing.B) {
	h := NewPoly(rng.New(1), 4, 1<<20)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = h.Eval(sink | 1)
	}
	_ = sink
}

func BenchmarkDMEval(b *testing.B) {
	h := NewDM(rng.New(1), 4, 1024, 1<<20)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = h.Eval(sink | 1)
	}
	_ = sink
}

func BenchmarkFindPerfect25Keys(b *testing.B) {
	r := rng.New(1)
	keys := distinctKeys(r, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FindPerfect(r, keys, 625, 500, nil); err != nil {
			b.Fatal(err)
		}
	}
}
