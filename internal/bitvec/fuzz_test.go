package bitvec

import "testing"

// FuzzHistogramRoundTrip checks encode/decode inverse on arbitrary load
// vectors derived from fuzz input bytes.
func FuzzHistogramRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 250})
	f.Add([]byte{255, 255, 0, 7})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		loads := make([]int, len(raw))
		total := 0
		for i, b := range raw {
			loads[i] = int(b)
			total += int(b)
		}
		v := EncodeHistogram(loads)
		if v.Len() != HistogramBits(len(loads), total) {
			t.Fatalf("encoded length %d, want %d", v.Len(), HistogramBits(len(loads), total))
		}
		dec, err := DecodeHistogram(v, len(loads))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		for i := range loads {
			if dec[i] != loads[i] {
				t.Fatalf("round trip mismatch at %d: %d != %d", i, dec[i], loads[i])
			}
		}
		// Prefix decode through a word-level round trip (the query path).
		w := FromWords(v.Words(), len(v.Words())*64)
		dec2, err := DecodeHistogramPrefix(w, len(loads))
		if err != nil {
			t.Fatalf("prefix decode: %v", err)
		}
		for i := range loads {
			if dec2[i] != loads[i] {
				t.Fatalf("prefix mismatch at %d", i)
			}
		}
		// The streaming decoder must agree with the materializing one on
		// every prefix length.
		for count := 1; count <= len(loads); count++ {
			sumSq, last, err := HistogramPrefixSum(w, count)
			if err != nil {
				t.Fatalf("prefix sum count %d: %v", count, err)
			}
			wantSq := 0
			for _, l := range loads[:count-1] {
				wantSq += l * l
			}
			if sumSq != wantSq || last != loads[count-1] {
				t.Fatalf("prefix sum count %d: (%d, %d), want (%d, %d)",
					count, sumSq, last, wantSq, loads[count-1])
			}
		}
	})
}

// FuzzDecodeNeverPanics: arbitrary words of any bit length from 1 to 128,
// partial last words included, must decode or error, not panic, and the two
// prefix decoders must agree on arbitrary (even corrupt) input, down to the
// error text.
func FuzzDecodeNeverPanics(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(127), 5)
	f.Add(^uint64(0), uint64(1)<<63, uint8(127), 100)
	f.Add(^uint64(0), ^uint64(0)>>3, uint8(100), 1)
	f.Fuzz(func(t *testing.T, w0, w1 uint64, nbits uint8, count int) {
		if count < 0 || count > 200 {
			return
		}
		v := FromWords([]uint64{w0, w1}, 1+int(nbits)%128)
		_, _ = DecodeHistogram(v, count)
		_, _ = DecodeHistogramPrefix(v, count)
		if count >= 1 {
			checkPrefixSum(t, v, count)
		}
	})
}
