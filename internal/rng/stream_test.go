package rng

import (
	"sync"
	"testing"
)

func TestLocalPassesOtherSourcesThrough(t *testing.T) {
	var s Stream
	r := New(3)
	if got := Local(r, &s); got != Source(r) {
		t.Errorf("Local(*RNG) = %v, want the same *RNG back", got)
	}
	var outer Stream
	if got := Local(&outer, &s); got != Source(&outer) {
		t.Errorf("Local(*Stream) = %v, want the same *Stream back (idempotence)", got)
	}
	// Passing a source through consumes nothing from it.
	ref := New(3)
	if r.Uint64() != ref.Uint64() {
		t.Error("Local consumed a draw from a non-sharded source")
	}
}

func TestLocalShardedTakesOneDraw(t *testing.T) {
	// Localising a single-shard source reseeds the stream from exactly one
	// draw: the source's next draw is its second, and the stream starts at
	// the first.
	src, ref := NewSharded(5, 1), NewSharded(5, 1)
	var s Stream
	if got := Local(src, &s); got != Source(&s) {
		t.Fatalf("Local(*Sharded) = %v, want the stream", got)
	}
	origin := ref.Uint64()
	if got, want := src.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("source after Local drew %x, want its second draw %x", got, want)
	}
	st := origin
	for i := 0; i < 10; i++ {
		if want, got := SplitMix64(&st), s.Uint64(); got != want {
			t.Fatalf("stream draw %d = %x, want %x", i, got, want)
		}
	}
}

func TestStreamMatchesSplitMix(t *testing.T) {
	for _, origin := range []uint64{0, 1, 0xdeadbeef, 1<<64 - 1} {
		s := Stream{state: origin}
		st := origin
		for i := 0; i < 100; i++ {
			if want, got := SplitMix64(&st), s.Uint64(); got != want {
				t.Fatalf("origin %x draw %d: got %x, want splitmix64 %x", origin, i, got, want)
			}
		}
	}
	// The zero Stream is origin 0, whose sequence has published vectors.
	var z Stream
	if got := z.Uint64(); got != 0xe220a8397b1dcdaf {
		t.Errorf("zero Stream first draw %#x, want splitmix64(0) %#x", got, uint64(0xe220a8397b1dcdaf))
	}
}

func TestStreamIntnBounds(t *testing.T) {
	s := Stream{state: 11}
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		// Loose uniformity: each bin within 10% of the expected mass.
		if c < draws/10-draws/100 || c > draws/10+draws/100 {
			t.Errorf("Intn(10) bin %d: %d draws, expected ≈%d", v, c, draws/10)
		}
	}
	// A Stream and a single-shard Sharded walking the same splitmix64
	// sequence reduce to the same values, rejection draws included.
	sh := NewSharded(7, 1)
	sm := uint64(7)
	a := Stream{state: SplitMix64(&sm)}
	for _, n := range []int{1, 3, 10, 1 << 20, 1<<62 + 1} {
		for i := 0; i < 100; i++ {
			if got, want := a.Intn(n), sh.Intn(n); got != want {
				t.Fatalf("Stream.Intn(%d) = %d, Sharded.Intn = %d", n, got, want)
			}
		}
	}
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			s.Intn(n)
		}()
	}
}

// TestLocalConcurrentSpans localises one Sharded source from many goroutines
// in many short spans, the pattern the query paths follow; run under -race.
// Every draw — span origins and stream draws alike — must be distinct.
func TestLocalConcurrentSpans(t *testing.T) {
	src := NewSharded(17, 0)
	const goroutines, spans, span = 8, 2000, 4
	var wg sync.WaitGroup
	results := make([][]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s Stream
			out := make([]uint64, 0, spans*span)
			for i := 0; i < spans; i++ {
				r := Local(src, &s)
				for j := 0; j < span; j++ {
					out = append(out, r.Uint64())
				}
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool, goroutines*spans*span)
	dups := 0
	for _, out := range results {
		for _, v := range out {
			if seen[v] {
				dups++
			}
			seen[v] = true
		}
	}
	if dups > 2 {
		t.Errorf("%d duplicate draws across %d goroutines × %d localised spans", dups, goroutines, spans)
	}
}

// fillIntnMatchesLoop checks FillIntn(dst, n) on a stream at origin against
// len(dst) Intn(n) calls on a copy: the same values, truncated to int32 as
// FillIntn stores them, and the same next Uint64 afterwards. It returns how
// many draws the loop consumed.
func fillIntnMatchesLoop(t testing.TB, origin uint64, n, length int) int {
	t.Helper()
	bulk, loop := Stream{state: origin}, Stream{state: origin}
	dst := make([]int32, length)
	bulk.FillIntn(dst, n)
	for i := range dst {
		if want := int32(loop.Intn(n)); dst[i] != want {
			t.Fatalf("origin %#x n=%d len=%d: dst[%d] = %d, Intn loop drew %d", origin, n, length, i, dst[i], want)
		}
	}
	draws := 0
	for c := (Stream{state: origin}); c.state != loop.state; c.Uint64() {
		draws++
	}
	if got, want := bulk.Uint64(), loop.Uint64(); got != want {
		t.Fatalf("origin %#x n=%d len=%d: next Uint64 after FillIntn %#x, after the Intn loop %#x", origin, n, length, got, want)
	}
	return draws
}

// TestStreamFillIntnMatchesIntn: the bulk draw is a loop of Intn calls, for
// small n, a power of two, and n where a quarter (2^62+1), a third
// (⌈2^64/3⌉) or nearly none (2^63−1, the largest int) of the draws are
// rejected. 2^63+1, where half would be, does not fit in an int, which is
// what Intn takes. A non-positive n panics, as Intn does.
func TestStreamFillIntnMatchesIntn(t *testing.T) {
	const third = (1<<64-1)/3 + 1
	for _, n := range []int{1, 3, 65536, 1<<62 + 1, third, 1<<63 - 1} {
		rejected := 0
		for _, origin := range []uint64{0, 0xdeadbeef, 1<<64 - 1} {
			for _, length := range []int{0, 1, 8, 13, 256} {
				rejected += fillIntnMatchesLoop(t, origin, n, length) - length
			}
		}
		if (n == 1<<62+1 || n == third) && rejected == 0 {
			t.Errorf("n=%d: no draw was rejected, so the rejection path went untested", n)
		}
	}
	for _, n := range []int{0, -1, -1 << 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FillIntn(n=%d) did not panic", n)
				}
			}()
			var s Stream
			s.FillIntn(make([]int32, 1), n)
		}()
	}
}

// FuzzStreamFillIntn checks FillIntn against the Intn loop from any stream
// state, for any positive n and lengths up to 255; a non-positive n must
// panic.
func FuzzStreamFillIntn(f *testing.F) {
	f.Add(uint64(0), int64(1), uint8(0))
	f.Add(uint64(11), int64(3), uint8(13))
	f.Add(uint64(1<<64-1), int64(1<<62+1), uint8(8))
	f.Add(uint64(7), int64(0), uint8(1))
	f.Fuzz(func(t *testing.T, origin uint64, n int64, length uint8) {
		if n <= 0 {
			defer func() {
				if recover() == nil {
					t.Fatalf("FillIntn(n=%d) did not panic", n)
				}
			}()
			s := Stream{state: origin}
			s.FillIntn(make([]int32, length), int(n))
			return
		}
		fillIntnMatchesLoop(t, origin, int(n), int(length))
	})
}
