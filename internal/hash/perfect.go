package hash

import (
	"fmt"

	"repro/internal/modarith"
	"repro/internal/rng"
)

// Pairwise is a pairwise-independent hash x ↦ ((A·x + B) mod p) mod M with
// A, B ∈ F_p. Both coefficients are < 2^61, so a Pairwise function fits in a
// single 128-bit table cell — this is how each bucket's perfect hash function
// is stored "repeatedly in the space owned by the bucket" (paper §2.2) while
// keeping one probe per row.
type Pairwise struct {
	A, B uint64
	M    uint64
}

// NewPairwise draws a uniform pairwise-independent function into [m).
func NewPairwise(r *rng.RNG, m uint64) Pairwise {
	if m < 1 {
		panic("hash: NewPairwise needs m ≥ 1")
	}
	return Pairwise{A: r.Uint64n(modarith.P), B: r.Uint64n(modarith.P), M: m}
}

// Eval returns h(x) ∈ [0, M).
func (h Pairwise) Eval(x uint64) uint64 {
	return modarith.Add(modarith.Mul(h.A, modarith.Reduce(x)), h.B) % h.M
}

// IsInjectiveOn reports whether h maps the given keys to distinct values.
// scratch, if non-nil and of length ≥ M, is used to avoid allocation.
func (h Pairwise) IsInjectiveOn(keys []uint64, scratch []bool) bool {
	var seen []bool
	if uint64(len(scratch)) >= h.M {
		seen = scratch[:h.M]
		for i := range seen {
			seen[i] = false
		}
	} else {
		seen = make([]bool, h.M)
	}
	for _, x := range keys {
		v := h.Eval(x)
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// FindPerfect searches for a Pairwise function into [m) that is injective on
// keys, by rejection sampling. With m ≥ |keys|² pairwise independence makes
// each trial succeed with probability ≥ 1/2 (paper §2.1), so the expected
// number of trials is ≤ 2. It returns the function and the number of trials
// used, or an error after maxTries failures. scratch, if at least m long,
// holds the injectivity test's marks, so a caller that searches many ranges
// can pass one slice sized to the largest; otherwise a slice is allocated.
func FindPerfect(r *rng.RNG, keys []uint64, m uint64, maxTries int, scratch []bool) (Pairwise, int, error) {
	if uint64(len(keys)) > m {
		return Pairwise{}, 0, fmt.Errorf("hash: %d keys cannot be perfect-hashed into range %d", len(keys), m)
	}
	if uint64(len(scratch)) < m {
		scratch = make([]bool, m)
	}
	for try := 1; try <= maxTries; try++ {
		h := NewPairwise(r, m)
		if h.IsInjectiveOn(keys, scratch) {
			return h, try, nil
		}
	}
	return Pairwise{}, maxTries, fmt.Errorf("hash: no perfect hash for %d keys into range %d after %d tries", len(keys), m, maxTries)
}
