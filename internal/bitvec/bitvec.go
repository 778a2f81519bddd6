// Package bitvec provides bit vectors and the unary-coded group histogram
// of the paper's §2.2.
//
// The low-contention dictionary stores, for every group of s/m buckets, a
// "group histogram": the load of each bucket in the group written
// consecutively in unary (load many 1-bits) with a single 0-bit separator
// after each bucket. The query algorithm reads the ρ = O(1) histogram words
// for its group and decodes every bucket load, from which it derives the
// ℓ² cell ranges owned by each bucket.
package bitvec

import (
	"fmt"
	"math/bits"
)

// Vector is an append-only bit string packed into 64-bit words, LSB-first
// within each word (bit i of the string lives in word i/64 at position i%64).
type Vector struct {
	words []uint64
	n     int // number of valid bits
}

// New returns an empty vector with capacity for at least nbits bits.
func New(nbits int) *Vector {
	return &Vector{words: make([]uint64, 0, (nbits+63)/64)}
}

// FromWords constructs a vector over an existing word slice holding nbits
// valid bits. The slice is not copied.
func FromWords(words []uint64, nbits int) *Vector {
	if nbits < 0 || nbits > len(words)*64 {
		panic(fmt.Sprintf("bitvec: %d bits do not fit in %d words", nbits, len(words)))
	}
	return &Vector{words: words, n: nbits}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words returns the backing words. The final word's unused high bits are zero.
func (v *Vector) Words() []uint64 { return v.words }

// Append adds a single bit to the end of the vector.
func (v *Vector) Append(bit bool) {
	if v.n%64 == 0 {
		v.words = append(v.words, 0)
	}
	if bit {
		v.words[v.n/64] |= 1 << uint(v.n%64)
	}
	v.n++
}

// Bit returns bit i. It panics if i is out of range.
func (v *Vector) Bit(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: bit %d out of range [0,%d)", i, v.n))
	}
	return v.words[i/64]>>(uint(i%64))&1 == 1
}

// OnesCount returns the number of set bits.
func (v *Vector) OnesCount() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// EncodeHistogram encodes bucket loads as the paper's unary group histogram:
// for each load ℓ, ℓ one-bits followed by one zero-bit separator. The total
// length is sum(loads) + len(loads) bits.
func EncodeHistogram(loads []int) *Vector {
	words, n := AppendHistogram(nil, loads)
	return &Vector{words: words, n: n}
}

// AppendHistogram appends the words of EncodeHistogram(loads) to dst and
// returns the extended slice and the histogram's length in bits. The
// histogram starts on a fresh word, and its last word's unused high bits
// are zero.
func AppendHistogram(dst []uint64, loads []int) ([]uint64, int) {
	n := len(loads)
	for _, l := range loads {
		if l < 0 {
			panic("bitvec: negative load")
		}
		n += l
	}
	base := len(dst)
	dst = append(dst, make([]uint64, (n+63)/64)...)
	w := dst[base:]
	at := 0
	for _, l := range loads {
		for l > 0 { // the run's ones, a word's share at a time
			k := min(l, 64-at%64)
			w[at/64] |= ^uint64(0) >> uint(64-k) << uint(at%64)
			at += k
			l -= k
		}
		at++ // the separator
	}
	return dst, n
}

// DecodeHistogram decodes a unary group histogram of exactly count buckets.
// It returns an error if the vector does not contain count separators, or if
// bits remain after the final separator.
func DecodeHistogram(v *Vector, count int) ([]int, error) {
	if count == 0 {
		for j := 0; j < v.Len(); j++ {
			if v.Bit(j) {
				return nil, fmt.Errorf("bitvec: trailing one-bit at %d after 0 buckets", j)
			}
		}
		return []int{}, nil
	}
	loads := make([]int, 0, count)
	run := 0
	for i := 0; i < v.Len(); i++ {
		if v.Bit(i) {
			run++
			continue
		}
		loads = append(loads, run)
		run = 0
		if len(loads) == count {
			for j := i + 1; j < v.Len(); j++ {
				if v.Bit(j) {
					return nil, fmt.Errorf("bitvec: trailing one-bit at %d after %d buckets", j, count)
				}
			}
			return loads, nil
		}
	}
	return nil, fmt.Errorf("bitvec: histogram has %d separators, want %d", len(loads), count)
}

// DecodeHistogramPrefix decodes the first count bucket loads, ignoring any
// bits after the count-th separator. This is the query-side decoder: the ρ
// histogram cells a group owns may contain padding bits beyond the encoded
// histogram.
func DecodeHistogramPrefix(v *Vector, count int) ([]int, error) {
	if count == 0 {
		return []int{}, nil
	}
	loads := make([]int, 0, count)
	run := 0
	for i := 0; i < v.Len(); i++ {
		if v.Bit(i) {
			run++
			continue
		}
		loads = append(loads, run)
		run = 0
		if len(loads) == count {
			return loads, nil
		}
	}
	return nil, fmt.Errorf("bitvec: histogram has %d separators, want %d", len(loads), count)
}

// HistogramPrefixSum streams the first count bucket loads of a unary group
// histogram and returns the sum of squares of the first count−1 loads
// together with the count-th load itself, without materializing a load
// slice. It decodes exactly what the query algorithm's phase 3 needs — the
// cell offset Σ_{k<pos} ℓ_k² and the bucket load ℓ_pos — and it agrees with
// DecodeHistogramPrefix on every input: for loads := DecodeHistogramPrefix(v,
// count), sumSq = Σ_{k<count−1} loads[k]² and last = loads[count−1].
//
// Nothing walks the separators. A word's zero-bit popcount says whether the
// count-th separator lies in it, and a broadword select finds it there. The
// squares come from the runs of ones O before that separator: a run of ℓ
// ones holds ℓ−j positions whose j lower neighbours are all ones, so
// Σℓ² = |O| + 2·Σ_{j≥1} |A_j| with A_1 = O & (O<<1) and A_{j+1} =
// A_j & (A_j<<1). A run that crosses into a word from the ones carried at
// the top of the words before adds 2·carry·(the word's trailing ones).
// The sum counts the count-th load too, so its square is taken back off.
func HistogramPrefixSum(v *Vector, count int) (sumSq, last int, err error) {
	if count < 1 {
		return 0, 0, fmt.Errorf("bitvec: prefix sum needs count ≥ 1, got %d", count)
	}
	seps, carry := 0, 0
	for wi := 0; wi*64 < v.n; wi++ {
		valid := min(v.n-wi*64, 64)
		mask := ^uint64(0) >> uint(64-valid) // the slack is neither ones nor separators
		o := v.words[wi] & mask
		zeros := valid - bits.OnesCount64(o)
		if seps+zeros >= count {
			p := select64(^o&mask, count-seps-1)
			o &= 1<<uint(p) - 1
			sumSq += runSquares(o) + 2*carry*bits.TrailingZeros64(^o)
			// The ones just below the separator, and the carry too when they
			// reach down to bit 0.
			last = bits.LeadingZeros64(^(o << uint(64-p)))
			if last == p {
				last += carry
			}
			return sumSq - last*last, last, nil
		}
		seps += zeros
		sumSq += runSquares(o) + 2*carry*bits.TrailingZeros64(^o)
		if o == mask {
			carry += valid
		} else {
			carry = bits.LeadingZeros64(^(o << uint(64-valid)))
		}
	}
	return 0, 0, fmt.Errorf("bitvec: histogram has %d separators, want %d", seps, count)
}

// runSquares returns Σℓ² over the runs of ones in o, counting only the
// part of each run inside the word.
func runSquares(o uint64) int {
	sq := bits.OnesCount64(o)
	for a := o & (o << 1); a != 0; a &= a << 1 {
		sq += 2 * bits.OnesCount64(a)
	}
	return sq
}

// selectInByte[b<<3|k] is the position of the k-th (from 0) set bit of b.
var selectInByte [256 * 8]uint8

func init() {
	for b := 0; b < 256; b++ {
		k := 0
		for i := 0; i < 8; i++ {
			if b>>uint(i)&1 == 1 {
				selectInByte[b<<3|k] = uint8(i)
				k++
			}
		}
	}
}

// select64 returns the position of the k-th (from 0) set bit of x, which
// must have more than k set bits. The byte holding it is found broadword
// (Vigna, "Broadword implementation of rank/select queries", 2008): byte i
// of byteSums counts the set bits of bytes 0..i, and the bytes whose count
// is at most k lie wholly below the bit.
func select64(x uint64, k int) int {
	const l8, h8 = 0x0101010101010101, 0x8080808080808080
	s := x - (x>>1)&0x5555555555555555
	s = s&0x3333333333333333 + (s>>2)&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f
	byteSums := s * l8
	place := bits.OnesCount64(((uint64(k)*l8|h8)-byteSums)&h8) * 8
	rank := k - int((byteSums<<8)>>uint(place)&0xff)
	return place + int(selectInByte[(x>>uint(place)&0xff)<<3|uint64(rank)])
}

// HistogramBits returns the exact number of bits needed to encode the given
// bucket count and total load: totalLoad ones plus count separators.
func HistogramBits(count, totalLoad int) int { return count + totalLoad }

// Reset repoints the vector at an existing word slice holding nbits valid
// bits, without copying — the in-place analogue of FromWords for callers
// that reuse one Vector across queries to avoid allocation.
func (v *Vector) Reset(words []uint64, nbits int) {
	if nbits < 0 || nbits > len(words)*64 {
		panic(fmt.Sprintf("bitvec: %d bits do not fit in %d words", nbits, len(words)))
	}
	v.words = words
	v.n = nbits
}
