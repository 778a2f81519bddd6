// Package rng provides a deterministic, splittable pseudo-random number
// generator for reproducible experiments.
//
// Every randomized component in this repository — hash-family sampling,
// replica choice in the query algorithm, workload generation, the
// lower-bound adversary — draws from an *RNG seeded explicitly, so that
// every experiment table is reproducible from its seed. The core generator
// is xoshiro256**, seeded through splitmix64 as its authors recommend.
package rng

import "math/bits"

// splitMixGamma is the additive constant of the splitmix64 sequence.
const splitMixGamma = 0x9e3779b97f4a7c15

// SplitMix64 advances a splitmix64 state and returns the next output.
// It is the seeding primitive and is also used directly where a cheap
// stateless hash of a counter is sufficient.
func SplitMix64(state *uint64) uint64 {
	*state += splitMixGamma
	return mix64(*state)
}

// mix64 is the splitmix64 output finalizer: a bijective scramble of the
// raw Weyl-sequence state.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** generator. It is not safe for concurrent use;
// use Split to derive independent streams for concurrent goroutines.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via splitmix64. It is
// small enough to inline, so a generator that does not outlive its caller
// stays off the heap.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

func (r *RNG) seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	// xoshiro forbids the all-zero state; splitmix64 of any seed cannot
	// produce four zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n) using Lemire's nearly-divisionless
// method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n(0)")
	}
	for {
		if v, ok := reduce(r.Uint64(), n); ok {
			return v
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Split derives a new generator whose stream is independent of the parent's
// future output. It consumes one value from the parent.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// jumpPoly is the xoshiro256** jump polynomial: Jump advances the state by
// 2^128 steps, yielding 2^128 provably non-overlapping subsequences.
var jumpPoly = [4]uint64{
	0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
	0xa9582618e03fc9aa, 0x39abdc4529b1661c,
}

// Jump advances the generator by 2^128 steps in O(256) operations. Calling
// Jump k times on copies of one seed state produces k streams guaranteed
// not to overlap for 2^128 outputs each — stronger than Split's statistical
// independence.
func (r *RNG) Jump() {
	var s [4]uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s[0] ^= r.s[0]
				s[1] ^= r.s[1]
				s[2] ^= r.s[2]
				s[3] ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = s
}

// Clone returns an independent copy of the generator's current state.
func (r *RNG) Clone() *RNG {
	c := *r
	return &c
}

// Perm returns a uniformly random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
