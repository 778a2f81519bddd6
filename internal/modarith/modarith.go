// Package modarith implements arithmetic over the Mersenne prime field
// F_p with p = 2^61 - 1.
//
// The paper's hash families (Carter–Wegman polynomial families H^d_m and the
// Dietzfelbinger–Meyer auf der Heide family R^d_{r,m}) need a field whose
// order exceeds the key universe. p = 2^61 - 1 supports universes up to
// 2^61 - 2 keys while keeping every intermediate product within 128 bits,
// so all operations reduce with shifts and adds instead of division.
//
// Polynomial evaluation reduces lazily. Each Horner step folds its sum with
// x&P + x>>61, which keeps the accumulator below 2^61+8 and congruent mod P
// without a conditional subtract, and one Reduce at the end lands the value
// in [0, P). PolyEval2 runs two such accumulators in one loop, which is how
// the dictionary's query evaluates its hash pair f and g.
package modarith

import "math/bits"

// P is the field order, the Mersenne prime 2^61 - 1.
const P uint64 = (1 << 61) - 1

// Reduce maps an arbitrary uint64 into [0, P).
// It folds the top bits using 2^61 ≡ 1 (mod P).
func Reduce(x uint64) uint64 {
	x = (x & P) + (x >> 61)
	if x >= P {
		x -= P
	}
	return x
}

// Add returns (a + b) mod P for a, b < P.
func Add(a, b uint64) uint64 {
	s := a + b // < 2^62, no overflow
	if s >= P {
		s -= P
	}
	return s
}

// Sub returns (a - b) mod P for a, b < P.
func Sub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + P - b
}

// Neg returns -a mod P for a < P.
func Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return P - a
}

// Mul returns (a * b) mod P for a, b < P.
//
// The 128-bit product hi·2^64 + lo is folded using 2^61 ≡ 1 (mod P):
// the product of two 61-bit values is below 2^122, so hi < 2^58 and a
// single fold of the two 61-bit limbs suffices.
func Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// limb0: bits 0..60, limb1: bits 61..121.
	limb0 := lo & P
	limb1 := (lo >> 61) | (hi << 3) // hi < 2^58, so hi<<3 < 2^61
	return Add(limb0, Reduce(limb1))
}

// Pow returns a^e mod P by binary exponentiation.
func Pow(a uint64, e uint64) uint64 {
	a = Reduce(a)
	result := uint64(1)
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, a)
		}
		a = Mul(a, a)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a mod P.
// It panics if a ≡ 0 (mod P), which has no inverse.
func Inv(a uint64) uint64 {
	a = Reduce(a)
	if a == 0 {
		panic("modarith: zero has no inverse")
	}
	// Fermat: a^(P-2) mod P.
	return Pow(a, P-2)
}

// PolyEval evaluates the polynomial with the given coefficients at x over
// F_P using Horner's rule. coef[i] is the coefficient of x^i. The empty
// polynomial evaluates to 0.
func PolyEval(coef []uint64, x uint64) uint64 {
	x = fold(x)
	var acc uint64
	for i := len(coef) - 1; i >= 0; i-- {
		acc = hornerStep(acc, x, coef[i])
	}
	return Reduce(acc)
}

// PolyEval2 evaluates two polynomials with the same number of coefficients
// at x in one Horner loop, returning PolyEval(a, x) and PolyEval(b, x). b
// must be at least as long as a; its coefficients past len(a) are ignored.
func PolyEval2(a, b []uint64, x uint64) (uint64, uint64) {
	x = fold(x)
	b = b[:len(a)]
	var accA, accB uint64
	for i := len(a) - 1; i >= 0; i-- {
		accA = hornerStep(accA, x, a[i])
		accB = hornerStep(accB, x, b[i])
	}
	return Reduce(accA), Reduce(accB)
}

// fold returns a value below 2^61+8 that is congruent to x mod P, without a
// branch: x&P < 2^61 and x>>61 < 8.
func fold(x uint64) uint64 { return x&P + x>>61 }

// hornerStep returns acc·x + c mod P, folded below 2^61+8, for acc and x
// below 2^61+8 and any c. The product is below 2^123, so its limbs above
// and below bit 61 are below 2^62 and 2^61, and the three terms sum below
// 2^63.
func hornerStep(acc, x, c uint64) uint64 {
	hi, lo := bits.Mul64(acc, x)
	return fold(lo&P + (lo>>61 | hi<<3) + fold(c))
}
