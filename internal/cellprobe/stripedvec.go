package cellprobe

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// vecPad is the number of leading and trailing counter slots left unused in
// each stripe's backing array, so that two stripes allocated adjacently by
// the runtime never share a cache line at their boundaries (8 × 8-byte
// counters = one 64-byte line on each side).
const vecPad = 8

// StripedVector generalizes StripedCounter from one counter to a vector of
// them: N logical counters, each the sum of S per-stripe cells. An adder
// lands on a per-goroutine stripe (the same sync.Pool-cached handle
// discipline as StripedCounter), so concurrent adders on different Ps write
// disjoint backing arrays and never false-share a cache line even when they
// increment *adjacent* logical counters — the failure mode a single shared
// atomic array would have on the dictionary's replica blocks, where nearby
// cells are probed by different goroutines in the same instant.
//
// Sum and SumInto are full-sweep reads and may miss additions concurrent
// with them; callers wanting exact totals must quiesce first. The memory
// cost is S × N words, so stripe counts default low (min(GOMAXPROCS, 8)).
type StripedVector struct {
	stripes [][]atomic.Uint64 // each stripe: vecPad + length + vecPad slots
	length  int
	mask    uint64
	next    atomic.Uint64
	pool    sync.Pool // *uint64: cached stripe index
}

// maxVectorStripes caps the per-vector memory multiplier: beyond 8 stripes
// the false-sharing return is negligible next to S × N words of memory.
const maxVectorStripes = 8

// DefaultVectorStripes returns the default stripe count: min(GOMAXPROCS, 8)
// rounded up to a power of two.
func DefaultVectorStripes() int {
	s := runtime.GOMAXPROCS(0)
	if s > maxVectorStripes {
		s = maxVectorStripes
	}
	n := 1
	for n < s {
		n <<= 1
	}
	return n
}

// NewStripedVector returns a vector of length counters across the given
// number of stripes (rounded up to a power of two; stripes <= 0 selects
// DefaultVectorStripes).
func NewStripedVector(length, stripes int) *StripedVector {
	if length < 1 {
		panic("cellprobe: StripedVector needs length ≥ 1")
	}
	if stripes <= 0 {
		stripes = DefaultVectorStripes()
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	v := &StripedVector{
		stripes: make([][]atomic.Uint64, n),
		length:  length,
		mask:    uint64(n - 1),
	}
	for s := range v.stripes {
		v.stripes[s] = make([]atomic.Uint64, length+2*vecPad)
	}
	v.pool.New = func() any {
		i := new(uint64)
		*i = v.next.Add(1) - 1
		return i
	}
	return v
}

// Len returns the number of logical counters.
func (v *StripedVector) Len() int { return v.length }

// Stripes returns the stripe count S.
func (v *StripedVector) Stripes() int { return len(v.stripes) }

// Add increments counter i on the calling goroutine's stripe.
func (v *StripedVector) Add(i int) {
	h := v.pool.Get().(*uint64)
	s := *h & v.mask
	v.pool.Put(h)
	v.stripes[s][vecPad+i].Add(1)
}

// AddStripe increments counter i on the given stripe (masked into range).
// Callers that already hold a per-goroutine stripe identity — the telemetry
// probe sink fetches one handle per probe and charges several vectors with
// it — use this to skip the per-vector pool round trip.
func (v *StripedVector) AddStripe(stripe uint64, i int) {
	v.stripes[stripe&v.mask][vecPad+i].Add(1)
}

// AddStripeN adds n to counter i on the given stripe. Telemetry flushes a
// caller's per-step probe tally with it: one add per step, whatever the
// number of probes tallied.
func (v *StripedVector) AddStripeN(stripe uint64, i int, n uint64) {
	v.stripes[stripe&v.mask][vecPad+i].Add(n)
}

// Sum returns the total of counter i across all stripes.
func (v *StripedVector) Sum(i int) uint64 {
	var total uint64
	for s := range v.stripes {
		total += v.stripes[s][vecPad+i].Load()
	}
	return total
}

// SumInto writes every counter's cross-stripe total into dst (which must
// have length Len) and returns the grand total across all counters.
func (v *StripedVector) SumInto(dst []uint64) uint64 {
	if len(dst) != v.length {
		panic("cellprobe: SumInto needs a destination of length Len()")
	}
	for i := range dst {
		dst[i] = 0
	}
	var grand uint64
	for s := range v.stripes {
		row := v.stripes[s]
		for i := 0; i < v.length; i++ {
			c := row[vecPad+i].Load()
			dst[i] += c
			grand += c
		}
	}
	return grand
}

// Sums returns a freshly allocated vector of cross-stripe totals.
func (v *StripedVector) Sums() []uint64 {
	dst := make([]uint64, v.length)
	v.SumInto(dst)
	return dst
}

// ProbeSink observes the live probe stream of a table: one callback per
// recorded probe, from however many goroutines are querying concurrently.
// Implementations must therefore be safe for concurrent use and cheap —
// internal/telemetry's implementation lands every count on a
// cache-line-striped counter. Unlike a Recorder (sequential, exact,
// measurement-mode) a sink is an always-on production hook; unlike a trace
// callback it has no exclusivity caveat.
type ProbeSink interface {
	ProbeObserved(step, cell int)
}

// SetSink installs (or with nil removes) the table's probe sink. Installing
// must not race with probes — do it before the table is shared, as the
// facade's WithTelemetry and the dynamic dictionary's epoch publication do.
func (t *Table) SetSink(s ProbeSink) { t.sink = s }

// Sink returns the installed probe sink, or nil.
func (t *Table) Sink() ProbeSink { return t.sink }
