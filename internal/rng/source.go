package rng

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Source is the randomness a membership query consumes: independent uniform
// draws, one per replica choice. *RNG implements it for sequential and
// explicitly-seeded use; Sharded implements it for concurrent query paths
// that must not contend on a shared generator state; Stream is the
// goroutine-owned generator Local seeds from a Sharded for one span of
// queries.
//
// Implementations must be safe for use by the goroutine that owns them;
// Sharded is additionally safe for concurrent use by any number of
// goroutines.
type Source interface {
	// Uint64 returns 64 uniformly random bits.
	Uint64() uint64
	// Intn returns a uniform int in [0, n). It panics if n <= 0.
	Intn(n int) int
}

var (
	_ Source = (*RNG)(nil)
	_ Source = (*Sharded)(nil)
)

// cacheLine is the assumed coherence granularity. Each shard's state is
// padded to this size so that concurrent callers on different shards never
// write the same cache line — the same discipline the paper imposes on the
// dictionary's cells.
const cacheLine = 64

// shard is one cache-line-padded splitmix64 stream.
type shard struct {
	state atomic.Uint64
	_     [cacheLine - 8]byte
}

// Sharded is a low-contention concurrent query source. It maintains a power
// of two of independent splitmix64 streams, each padded to its own cache
// line. A call advances exactly one stream, picked by a per-goroutine handle
// cached in a sync.Pool: in the steady state each P of the Go scheduler owns
// a handle and therefore hits its own shard, so concurrent queries perform
// no writes to shared cache lines. Under handle churn (GC clears the pool)
// a goroutine may move to another shard; streams stay decorrelated because
// every shard runs its own splitmix64 sequence from an independent origin.
//
// Each call still pays the pool round trip and an atomic add. The query
// paths therefore draw from a Sharded once per query or batch, through
// Local, and take that span's replica choices from a goroutine-owned
// Stream seeded by the draw.
//
// Sharded trades reproducibility for scalability: which stream serves a
// call depends on scheduler placement (only a single-shard source is fully
// deterministic), and concurrent callers interleave shard advances in
// scheduling order. Pass an explicit *RNG where bit-exact reproducibility
// matters (the experiment harness does).
type Sharded struct {
	shards []shard
	mask   uint64
	next   atomic.Uint64
	pool   sync.Pool // *uint64: the caller's cached shard index
}

// NewSharded returns a sharded source seeded from seed. shards is rounded up
// to a power of two; shards <= 0 selects the default of 4×GOMAXPROCS, enough
// that handle collisions are rare even with goroutine migration.
func NewSharded(seed uint64, shards int) *Sharded {
	if shards <= 0 {
		shards = 4 * runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Sharded{shards: make([]shard, n), mask: uint64(n - 1)}
	// Give each shard an independent splitmix64 origin. Distinct origins
	// drawn from the seeding stream keep the per-shard sequences
	// decorrelated even though they share the additive constant.
	sm := seed
	for i := range s.shards {
		s.shards[i].state.Store(SplitMix64(&sm))
	}
	s.pool.New = func() any {
		i := new(uint64)
		*i = s.next.Add(1) - 1
		return i
	}
	return s
}

// Shards returns the number of independent streams.
func (s *Sharded) Shards() int { return len(s.shards) }

// Uint64 advances the calling goroutine's shard stream by one splitmix64
// step: a single atomic add on a cache line private to the shard, then a
// local finalizer. No other shared memory is written.
func (s *Sharded) Uint64() uint64 {
	h := s.pool.Get().(*uint64)
	i := *h & s.mask
	s.pool.Put(h)
	return mix64(s.shards[i].state.Add(splitMixGamma))
}

// Intn returns a uniform int in [0, n) using the same nearly-divisionless
// reduction as RNG.Intn. It panics if n <= 0.
func (s *Sharded) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	for {
		if v, ok := reduce(s.Uint64(), un); ok {
			return int(v)
		}
	}
}

// reduce maps the 64-bit draw u to [0, n) by Lemire's nearly-divisionless
// multiply-shift. ok is false when u falls in the rejection zone that would
// bias the result; the caller then redraws. The modulo runs only when the
// low product word is below n, which is rare for n ≪ 2^64.
func reduce(u, n uint64) (v uint64, ok bool) {
	hi, lo := bits.Mul64(u, n)
	if lo < n && lo < -n%n {
		return 0, false
	}
	return hi, true
}

// Stream is a goroutine-owned splitmix64 generator: a single state word
// advanced with plain (non-atomic) arithmetic, seeded by Local. A Stream
// must not be shared by concurrent goroutines. The zero Stream is usable
// (origin 0).
type Stream struct {
	state uint64
}

var _ Source = (*Stream)(nil)

// Uint64 advances the stream by one splitmix64 step.
func (s *Stream) Uint64() uint64 {
	s.state += splitMixGamma
	return mix64(s.state)
}

// Intn returns a uniform int in [0, n) with the reduction RNG.Intn and
// Sharded.Intn use (reduce, written out so that the compiler can inline
// Intn at a call through a concrete *Stream). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	un := uint64(n)
	for {
		hi, lo := bits.Mul64(s.Uint64(), un)
		if lo >= un || lo >= -un%un {
			if n <= 0 {
				panic("rng: Intn with non-positive n")
			}
			return int(hi)
		}
	}
}

// FillIntn sets each dst[i] to a uniform value in [0, n): the values
// len(dst) calls of Intn(n) would return, in order, rejection draws
// included, and the stream is left where those calls would leave it. The
// state stays in a local variable across the loop instead of being stored
// and reloaded per draw. A value is truncated to int32, so n should fit in
// one. It panics if n <= 0.
func (s *Stream) FillIntn(dst []int32, n int) {
	if n <= 0 {
		panic("rng: FillIntn with non-positive n")
	}
	un := uint64(n)
	state := s.state
	for i := range dst {
		for {
			state += splitMixGamma
			hi, lo := bits.Mul64(mix64(state), un)
			if lo >= un || lo >= -un%un {
				dst[i] = int32(hi)
				break
			}
		}
	}
	s.state = state
}

// Local returns the source a goroutine should draw one query's or one
// batch's replica choices from. When src is a *Sharded, Local reseeds s
// from a single src.Uint64() and returns s: the span then pays one shared
// draw instead of one per replica choice, and its remaining draws touch
// only the caller's own memory. Any other source — an explicitly seeded
// *RNG, or a *Stream some outer call already localised — is returned
// unchanged, so an explicit source is consumed draw for draw, one draw per
// replica choice, and nested calls pass a localised stream straight
// through.
//
// The returned source belongs to the calling goroutine: it must not be
// handed to another goroutine, which should call Local on the shared
// source itself.
func Local(src Source, s *Stream) Source {
	if sh, ok := src.(*Sharded); ok {
		s.state = sh.Uint64()
		return s
	}
	return src
}
