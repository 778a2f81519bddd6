package bitvec

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestAppendAndBit(t *testing.T) {
	v := New(0)
	pattern := []bool{true, false, true, true, false, false, true}
	for _, b := range pattern {
		v.Append(b)
	}
	if v.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", v.Len(), len(pattern))
	}
	for i, want := range pattern {
		if got := v.Bit(i); got != want {
			t.Errorf("Bit(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestAppendCrossesWordBoundary(t *testing.T) {
	v := New(0)
	for i := 0; i < 130; i++ {
		v.Append(i%3 == 0)
	}
	for i := 0; i < 130; i++ {
		if v.Bit(i) != (i%3 == 0) {
			t.Fatalf("Bit(%d) wrong across word boundary", i)
		}
	}
	if got, want := v.OnesCount(), (130+2)/3; got != want {
		t.Errorf("OnesCount = %d, want %d", got, want)
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	v := New(0)
	v.Append(true)
	for _, i := range []int{-1, 1, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) did not panic", i)
				}
			}()
			v.Bit(i)
		}()
	}
}

func TestFromWordsRoundTrip(t *testing.T) {
	words := []uint64{0xdeadbeef, 0x12345678}
	v := FromWords(words, 100)
	if v.Len() != 100 {
		t.Fatalf("Len = %d", v.Len())
	}
	for i := 0; i < 100; i++ {
		want := words[i/64]>>(uint(i%64))&1 == 1
		if v.Bit(i) != want {
			t.Errorf("Bit(%d) mismatch", i)
		}
	}
}

func TestFromWordsPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromWords with too many bits did not panic")
		}
	}()
	FromWords([]uint64{1}, 65)
}

func TestHistogramRoundTripFixed(t *testing.T) {
	cases := [][]int{
		{},
		{0},
		{0, 0, 0},
		{1, 2, 3},
		{5},
		{0, 7, 0, 1, 64, 2},
	}
	for _, loads := range cases {
		v := EncodeHistogram(loads)
		if got, want := v.Len(), HistogramBits(len(loads), sum(loads)); got != want {
			t.Errorf("encoded %v into %d bits, want %d", loads, got, want)
		}
		dec, err := DecodeHistogram(v, len(loads))
		if err != nil {
			t.Errorf("decode %v: %v", loads, err)
			continue
		}
		if !equal(dec, loads) {
			t.Errorf("round trip %v -> %v", loads, dec)
		}
	}
}

func TestHistogramRoundTripProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		loads := make([]int, len(raw))
		for i, r := range raw {
			loads[i] = int(r % 20)
		}
		dec, err := DecodeHistogram(EncodeHistogram(loads), len(loads))
		return err == nil && equal(dec, loads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeHistogramPrefixIgnoresPadding(t *testing.T) {
	loads := []int{3, 0, 2, 5}
	v := EncodeHistogram(loads)
	// Simulate the query path: the cells may carry stale padding bits.
	for i := 0; i < 9; i++ {
		v.Append(true)
	}
	v.Append(false)
	dec, err := DecodeHistogramPrefix(v, len(loads))
	if err != nil {
		t.Fatal(err)
	}
	if !equal(dec, loads) {
		t.Errorf("prefix decode = %v, want %v", dec, loads)
	}
	// Strict decode must reject the padding.
	if _, err := DecodeHistogram(v, len(loads)); err == nil {
		t.Error("strict decode accepted trailing one-bits")
	}
}

func TestDecodeHistogramErrors(t *testing.T) {
	v := EncodeHistogram([]int{1, 2})
	if _, err := DecodeHistogram(v, 3); err == nil {
		t.Error("decode with too-large count did not fail")
	}
	if _, err := DecodeHistogramPrefix(v, 3); err == nil {
		t.Error("prefix decode with too-large count did not fail")
	}
}

func TestEncodeHistogramPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EncodeHistogram(-1) did not panic")
		}
	}()
	EncodeHistogram([]int{-1})
}

func TestHistogramViaWordsRoundTrip(t *testing.T) {
	// The dictionary ships histograms between build and query as raw words;
	// verify Words -> FromWords preserves the decode.
	r := rng.New(3)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(40)
		loads := make([]int, n)
		total := 0
		for i := range loads {
			loads[i] = r.Intn(10)
			total += loads[i]
		}
		v := EncodeHistogram(loads)
		w := FromWords(v.Words(), HistogramBits(n, total))
		dec, err := DecodeHistogram(w, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !equal(dec, loads) {
			t.Fatalf("trial %d: %v != %v", trial, dec, loads)
		}
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prefixSumRef derives (sumSq, last) from the materializing decoder — the
// reference the streaming HistogramPrefixSum must match bit for bit.
func prefixSumRef(v *Vector, count int) (int, int, error) {
	loads, err := DecodeHistogramPrefix(v, count)
	if err != nil {
		return 0, 0, err
	}
	sumSq := 0
	for _, l := range loads[:count-1] {
		sumSq += l * l
	}
	return sumSq, loads[count-1], nil
}

func TestHistogramPrefixSumMatchesDecoder(t *testing.T) {
	cases := [][]int{
		{0},
		{1},
		{5},
		{0, 0, 0},
		{1, 2, 3, 4, 5},
		{63, 1, 64, 0, 65},       // runs straddling word boundaries
		{127, 0, 128, 2},         // separator on a word boundary
		{0, 200, 0, 0, 17, 3, 1}, // long run far past one word
	}
	for _, loads := range cases {
		v := EncodeHistogram(loads)
		// The query path hands the decoder whole words with padding bits
		// beyond the encoded histogram; mirror that.
		padded := FromWords(v.Words(), len(v.Words())*64)
		for _, vec := range []*Vector{v, padded} {
			for count := 1; count <= len(loads); count++ {
				wantSq, wantLast, wantErr := prefixSumRef(vec, count)
				gotSq, gotLast, gotErr := HistogramPrefixSum(vec, count)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("loads %v count %d: err %v, want %v", loads, count, gotErr, wantErr)
				}
				if gotSq != wantSq || gotLast != wantLast {
					t.Fatalf("loads %v count %d: (%d, %d), want (%d, %d)",
						loads, count, gotSq, gotLast, wantSq, wantLast)
				}
			}
		}
	}
}

func TestHistogramPrefixSumErrors(t *testing.T) {
	v := EncodeHistogram([]int{1, 2})
	if _, _, err := HistogramPrefixSum(v, 0); err == nil {
		t.Error("count 0 accepted")
	}
	if _, _, err := HistogramPrefixSum(v, -3); err == nil {
		t.Error("negative count accepted")
	}
	if _, _, err := HistogramPrefixSum(v, 3); err == nil {
		t.Error("count beyond the encoded buckets accepted")
	}
	// An all-ones vector has no separators at all.
	ones := FromWords([]uint64{^uint64(0), ^uint64(0)}, 128)
	if _, _, err := HistogramPrefixSum(ones, 1); err == nil {
		t.Error("separator-free vector accepted")
	}
}

func TestHistogramPrefixSumRandom(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(40)
		loads := make([]int, n)
		for i := range loads {
			if r.Intn(3) == 0 {
				loads[i] = 0
			} else {
				loads[i] = r.Intn(130)
			}
		}
		v := EncodeHistogram(loads)
		padded := FromWords(v.Words(), len(v.Words())*64)
		count := 1 + r.Intn(n)
		wantSq, wantLast, err := prefixSumRef(padded, count)
		if err != nil {
			t.Fatalf("trial %d: reference decode: %v", trial, err)
		}
		gotSq, gotLast, err := HistogramPrefixSum(padded, count)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if gotSq != wantSq || gotLast != wantLast {
			t.Fatalf("trial %d: loads %v count %d: (%d, %d), want (%d, %d)",
				trial, loads, count, gotSq, gotLast, wantSq, wantLast)
		}
	}
}

// checkPrefixSum compares HistogramPrefixSum with the materializing decoder
// on v at count: the same (sumSq, last), or the same error text.
func checkPrefixSum(t *testing.T, v *Vector, count int) {
	wantSq, wantLast, wantErr := prefixSumRef(v, count)
	gotSq, gotLast, gotErr := HistogramPrefixSum(v, count)
	if (gotErr != nil) != (wantErr != nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Helper()
		t.Fatalf("words %#x (%d bits) count %d: err %v, want %v", v.Words(), v.Len(), count, gotErr, wantErr)
	}
	if gotSq != wantSq || gotLast != wantLast {
		t.Helper()
		t.Fatalf("words %#x (%d bits) count %d: (%d, %d), want (%d, %d)",
			v.Words(), v.Len(), count, gotSq, gotLast, wantSq, wantLast)
	}
}

// TestHistogramPrefixSumExhaustive16: every 16-bit vector, at every count
// from 1 to one past its bit length, in a 16-bit vector and with the word's
// upper bits set as slack that the decoder must ignore.
func TestHistogramPrefixSumExhaustive16(t *testing.T) {
	for w := uint64(0); w < 1<<16; w++ {
		for _, word := range []uint64{w, w | 0xffffffffffff0000} {
			v := FromWords([]uint64{word}, 16)
			for count := 1; count <= 17; count++ {
				checkPrefixSum(t, v, count)
			}
		}
	}
}

// TestHistogramPrefixSumRandomWords: random 1–4-word vectors whose bit
// length is not a multiple of 64, drawn so that long runs of ones cross word
// boundaries, whole words are all ones, and many counts ask for more
// separators than the vector holds.
func TestHistogramPrefixSumRandomWords(t *testing.T) {
	r := rng.New(91)
	for trial := 0; trial < 5000; trial++ {
		words := make([]uint64, 1+r.Intn(4))
		for i := range words {
			switch r.Intn(4) {
			case 0:
				words[i] = ^uint64(0)
			case 1:
				words[i] = r.Uint64()
			default: // sparse zeros: runs of ones several words long
				words[i] = ^(r.Uint64() & r.Uint64() & r.Uint64() & r.Uint64())
			}
		}
		nbits := len(words)*64 - 1 - r.Intn(63)
		v := FromWords(words, nbits)
		for count := 1; count <= nbits+1; count += 1 + r.Intn(4) {
			checkPrefixSum(t, v, count)
		}
	}
}

// TestSelect64: the broadword select finds every set bit of random and edge
// words.
func TestSelect64(t *testing.T) {
	r := rng.New(5)
	words := []uint64{1, 1 << 63, ^uint64(0), 0x8000000000000001, 0x00ff00ff00ff00ff}
	for i := 0; i < 2000; i++ {
		words = append(words, r.Uint64()&r.Uint64())
	}
	for _, w := range words {
		k := 0
		for i := 0; i < 64; i++ {
			if w>>uint(i)&1 == 0 {
				continue
			}
			if got := select64(w, k); got != i {
				t.Fatalf("select64(%#x, %d) = %d, want %d", w, k, got, i)
			}
			k++
		}
	}
}

// BenchmarkHistogramPrefixSum decodes group histograms shaped like the
// dictionary's at n=32768 — 83 buckets holding about 41 keys, one or two
// words — at uniformly drawn bucket positions, as the query's phase 3 does.
func BenchmarkHistogramPrefixSum(b *testing.B) {
	const groups, buckets, keys = 256, 83, 41
	r := rng.New(12)
	vecs := make([]*Vector, groups)
	for g := range vecs {
		loads := make([]int, buckets)
		for k := 0; k < keys; k++ {
			loads[r.Intn(buckets)]++
		}
		words, _ := AppendHistogram(nil, loads)
		words = append(words, make([]uint64, 4-len(words))...) // the ρ=2 cells' padding
		vecs[g] = FromWords(words, 256)
	}
	counts := make([]int, 1024)
	for i := range counts {
		counts[i] = 1 + r.Intn(buckets)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sq, last, _ := HistogramPrefixSum(vecs[i%groups], counts[i%len(counts)])
		prefixSumSink += sq + last
	}
}

var prefixSumSink int
