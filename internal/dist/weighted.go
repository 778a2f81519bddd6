package dist

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// WeightedSet is a general finite query distribution given by an explicit
// weighted support — the form every Supporter in this package reduces to,
// and the form the distribution-aware telemetry layer consumes. It closes
// the loop between sampling and analysis: the same []Weighted that drives
// contention.Exact can drive a live workload, so live Φ̂ and exact Φ are
// computed under one distribution.
//
// Unlike the other distributions here it can additionally draw from a plain
// rng.Source (Draw), so concurrent workload drivers can sample through a
// shared low-contention rng.Sharded or through a goroutine-owned stream
// (rng.Stream, e.g. from rng.Local) instead of a per-goroutine *rng.RNG.
type WeightedSet struct {
	keys  []uint64
	cum   []float64 // cumulative probabilities, cum[len-1] == 1
	Label string
}

// NewWeightedSet builds a weighted distribution from a support. Weights must
// be non-negative, finite, and sum to a positive total; they are normalized.
// Duplicate keys are allowed and their weights merge. Zero-weight points are
// dropped.
func NewWeightedSet(support []Weighted, label string) (*WeightedSet, error) {
	if len(support) == 0 {
		return nil, fmt.Errorf("dist: weighted set over empty support")
	}
	merged := make(map[uint64]float64, len(support))
	total := 0.0
	for _, w := range support {
		if w.P < 0 || math.IsNaN(w.P) || math.IsInf(w.P, 0) {
			return nil, fmt.Errorf("dist: weight %v for key %d is not a finite non-negative number", w.P, w.Key)
		}
		merged[w.Key] += w.P
		total += w.P
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: weighted set has zero total mass")
	}
	keys := make([]uint64, 0, len(merged))
	for k, p := range merged {
		if p > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	cum := make([]float64, len(keys))
	acc := 0.0
	for i, k := range keys {
		acc += merged[k] / total
		cum[i] = acc
	}
	cum[len(cum)-1] = 1.0
	return &WeightedSet{keys: keys, cum: cum, Label: label}, nil
}

// Len returns the support size (distinct positive-weight keys).
func (w *WeightedSet) Len() int { return len(w.keys) }

// Sample draws one key with a *rng.RNG (the Dist interface).
func (w *WeightedSet) Sample(r *rng.RNG) uint64 { return w.at(r.Float64()) }

// Draw draws one key from any rng.Source — an rng.Sharded lets concurrent
// drivers sample without contending on a shared generator, at a pool
// round trip and an atomic add per draw; a driver that draws many keys in a
// row can localise it once with rng.Local and draw from its own stream. The
// uniform variate is the source's top 53 bits, the same construction
// rng.RNG.Float64 uses.
func (w *WeightedSet) Draw(r rng.Source) uint64 {
	return w.at(float64(r.Uint64()>>11) / (1 << 53))
}

// at maps a uniform variate u ∈ [0, 1) through the cumulative table.
func (w *WeightedSet) at(u float64) uint64 {
	i := sort.SearchFloat64s(w.cum, u)
	if i >= len(w.keys) {
		i = len(w.keys) - 1
	}
	return w.keys[i]
}

// Name identifies the distribution in reports.
func (w *WeightedSet) Name() string {
	if w.Label != "" {
		return w.Label
	}
	return fmt.Sprintf("weighted(%d)", len(w.keys))
}

// Support enumerates the normalized support, keys ascending.
func (w *WeightedSet) Support() []Weighted {
	out := make([]Weighted, len(w.keys))
	prev := 0.0
	for i, k := range w.keys {
		out[i] = Weighted{Key: k, P: w.cum[i] - prev}
		prev = w.cum[i]
	}
	return out
}

var (
	_ Dist      = (*WeightedSet)(nil)
	_ Supporter = (*WeightedSet)(nil)
)
