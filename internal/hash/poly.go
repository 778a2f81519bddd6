// Package hash implements the hash families the paper builds on:
//
//   - H^d_m — the d-wise independent (d-universal) polynomial families of
//     Carter and Wegman [1]: degree-(d−1) polynomials over F_p with
//     p = 2^61 − 1, reduced mod m.
//   - R^d_{r,m} — the Dietzfelbinger–Meyer auf der Heide family (paper
//     Definition 4): h_{f,g,z}(x) = (f(x) + z_{g(x)}) mod m with f ∈ H^d_m,
//     g ∈ H^d_r, z ∈ [m]^r. This family gives the evenly distributed bucket
//     loads of Lemma 9 that the low-contention dictionary's groups rely on.
//   - per-bucket perfect hash functions: pairwise-independent polynomials
//     into a quadratic range, found by rejection sampling (FKS [8]).
//   - multiply-shift hashing, used by baseline dictionaries.
//
// All keys live in the universe U = [0, 2^61 − 1); see modarith.
package hash

import (
	"fmt"

	"repro/internal/modarith"
	"repro/internal/rng"
)

// MaxKey is the exclusive upper bound of the key universe: keys must be
// < 2^61 − 1 so that they embed injectively into F_p.
const MaxKey = modarith.P

// Poly is a function drawn from the d-wise independent family H^d_m:
// x ↦ (Σ_i Coef[i]·x^i mod p) mod m. For distinct x_1..x_d the values are
// uniform and independent over [m], up to the negligible bias m/p from the
// final reduction (m ≤ 2^40 in every use here, so bias < 2^-21).
type Poly struct {
	Coef []uint64 // d coefficients, each in [0, p)
	M    uint64   // range size
}

// NewPoly draws a uniform member of H^d_m. It panics unless d ≥ 1 and m ≥ 1.
func NewPoly(r *rng.RNG, d int, m uint64) Poly {
	if d < 1 {
		panic("hash: NewPoly needs d ≥ 1")
	}
	if m < 1 {
		panic("hash: NewPoly needs m ≥ 1")
	}
	coef := make([]uint64, d)
	for i := range coef {
		coef[i] = r.Uint64n(modarith.P)
	}
	return Poly{Coef: coef, M: m}
}

// PolyFromCoef reconstructs a polynomial hash from stored coefficients,
// as the query algorithm does after reading them from table cells.
func PolyFromCoef(coef []uint64, m uint64) Poly {
	if m < 1 {
		panic("hash: PolyFromCoef needs m ≥ 1")
	}
	return Poly{Coef: coef, M: m}
}

// Eval returns h(x) ∈ [0, M).
func (h Poly) Eval(x uint64) uint64 {
	return modarith.PolyEval(h.Coef, x) % h.M
}

// EvalField returns the polynomial value in F_p before the reduction to [M).
// The dictionary stores field values and reduces at query time so that the
// same coefficients can serve several ranges (h into [s] and h′ into [m]).
func (h Poly) EvalField(x uint64) uint64 {
	return modarith.PolyEval(h.Coef, x)
}

// D returns the independence degree (number of coefficients).
func (h Poly) D() int { return len(h.Coef) }

// DM is a function h_{f,g,z} from the family R^d_{r,m} of Definition 4:
//
//	h(x) = (F(x) + Z[G(x)]) mod M.
//
// F has range M, G has range r = len(Z), and every Z[i] ∈ [M).
type DM struct {
	F Poly
	G Poly
	Z []uint64
}

// NewDM draws a uniform member of R^d_{r,m}.
func NewDM(rand *rng.RNG, d int, r, m uint64) DM {
	if r < 1 {
		panic("hash: NewDM needs r ≥ 1")
	}
	z := make([]uint64, r)
	for i := range z {
		z[i] = rand.Uint64n(m)
	}
	return DM{
		F: NewPoly(rand, d, m),
		G: NewPoly(rand, d, r),
		Z: z,
	}
}

// Eval returns h(x) ∈ [0, M).
func (h DM) Eval(x uint64) uint64 {
	return (h.F.Eval(x) + h.Z[h.G.Eval(x)]) % h.F.M
}

// M returns the range size.
func (h DM) M() uint64 { return h.F.M }

// Mod returns h′ = h mod m as a member of R^d_{r,m}. It requires m | M:
// then ((f(x)+z_{g(x)}) mod M) mod m = (f(x) mod m + z_{g(x)} mod m) mod m,
// so h′ is represented by the same coefficients with the smaller range and
// z reduced mod m — exactly the paper's §2.2 observation that h′ is itself
// uniform over R^d_{r,m}.
func (h DM) Mod(m uint64) (DM, error) {
	if m == 0 || h.F.M%m != 0 {
		return DM{}, fmt.Errorf("hash: range %d does not divide %d", m, h.F.M)
	}
	z := make([]uint64, len(h.Z))
	for i, v := range h.Z {
		z[i] = v % m
	}
	return DM{F: Poly{Coef: h.F.Coef, M: m}, G: h.G, Z: z}, nil
}

// Loads returns the bucket loads ℓ(S, h, i) of Definition 5 for the hash
// function eval with range m: loads[i] = |{x ∈ S : eval(x) = i}|.
func Loads(S []uint64, eval func(uint64) uint64, m int) []int {
	loads := make([]int, m)
	for _, x := range S {
		loads[eval(x)]++
	}
	return loads
}

// MaxLoad returns the largest entry of loads (0 for an empty slice).
func MaxLoad(loads []int) int {
	best := 0
	for _, l := range loads {
		if l > best {
			best = l
		}
	}
	return best
}

// SumSquares returns Σ_i loads[i]², the FKS space requirement of Lemma 9(3).
func SumSquares(loads []int) int {
	total := 0
	for _, l := range loads {
		total += l * l
	}
	return total
}
