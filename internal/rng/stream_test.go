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
