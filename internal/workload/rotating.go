package workload

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/rng"
)

// RotatingHotSet is the ddtxn-auction-style adversary for the two-phase
// write path: a point mass of H hot keys receives hotFrac of all traffic,
// and every window of W operations the hot block rotates to the next H keys
// (wrapping over the key set). Within a window the schedule is a
// WeightedDrive pass over key *indices* — largest-remainder apportionment
// plus a seeded shuffle — so the realized hot mass per window is exact and
// deterministic; rotation is pure index arithmetic on top, so the whole
// sequence is reproducible and the shared cursor stays a single atomic.
//
// The drive answers three consumers: bench and scenario loops call Next
// (concurrent, schedule semantics like WeightedDrive), tests use At and
// HotSet to know exactly which keys are hot at any position, and dist.Dist
// consumers use Sample.
type RotatingHotSet struct {
	keys    []uint64
	hot     int
	window  int
	hotFrac float64
	inner   *WeightedDrive // schedule over indices [0, len(keys))
	pos     atomic.Uint64
}

// NewRotatingHotSet builds the drive: hot keys out of keys get hotFrac of
// the traffic, rotating every window ops. The window is also the inner
// schedule's pass length, so each window realizes the apportioned
// frequencies exactly; window must be ≥ 1 and hot in [1, len(keys)].
func NewRotatingHotSet(keys []uint64, hot, window int, hotFrac float64, seed uint64) (*RotatingHotSet, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("workload: rotating hot set needs keys")
	}
	if hot < 1 || hot > len(keys) {
		return nil, fmt.Errorf("workload: hot-set size %d outside [1, %d]", hot, len(keys))
	}
	if window < 1 {
		return nil, fmt.Errorf("workload: rotation window %d must be ≥ 1", window)
	}
	if hotFrac <= 0 || hotFrac >= 1 {
		return nil, fmt.Errorf("workload: hot fraction %v outside (0, 1)", hotFrac)
	}
	// Index support: indices 0..hot-1 carry the hot mass on top of the
	// uniform residual every index gets. Rotation shifts which keys those
	// indices map to, not the support itself.
	n := len(keys)
	support := make([]dist.Weighted, n)
	residual := (1 - hotFrac) / float64(n)
	for i := range support {
		support[i] = dist.Weighted{Key: uint64(i), P: residual}
		if i < hot {
			support[i].P += hotFrac / float64(hot)
		}
	}
	inner, err := NewWeightedDrive(support, window, seed)
	if err != nil {
		return nil, err
	}
	return &RotatingHotSet{
		keys:    append([]uint64(nil), keys...),
		hot:     hot,
		window:  window,
		hotFrac: hotFrac,
		inner:   inner,
	}, nil
}

// at maps one schedule position to a key: the inner pass supplies the
// index pattern, the position's window supplies the rotation offset.
func (d *RotatingHotSet) at(pos uint64) uint64 {
	idx := d.inner.At(int(pos % uint64(d.window)))
	w := pos / uint64(d.window)
	return d.keys[(idx+w*uint64(d.hot))%uint64(len(d.keys))]
}

// Next returns the next scheduled key. Safe for concurrent callers: each
// claims a distinct position, so every window collectively realizes the
// exact apportioned hot mass on that window's hot block.
func (d *RotatingHotSet) Next() uint64 { return d.at(d.pos.Add(1) - 1) }

// At returns the key at schedule position i without advancing the cursor —
// for workers striding disjoint ranges, and for tests replaying the exact
// sequence Next produces from a fresh drive.
func (d *RotatingHotSet) At(i int) uint64 { return d.at(uint64(i)) }

// Window returns which rotation window position i falls in.
func (d *RotatingHotSet) Window(i int) int { return i / d.window }

// HotSet returns the hot keys of rotation window w, in block order.
func (d *RotatingHotSet) HotSet(w int) []uint64 {
	out := make([]uint64, d.hot)
	off := uint64(w) * uint64(d.hot)
	for i := range out {
		out[i] = d.keys[(off+uint64(i))%uint64(len(d.keys))]
	}
	return out
}

// Len returns the rotation window length (one inner pass).
func (d *RotatingHotSet) Len() int { return d.window }

// Sample implements dist.Dist over the rotating schedule (the argument is
// unused — the schedule is the randomness, fixed at construction).
func (d *RotatingHotSet) Sample(*rng.RNG) uint64 { return d.Next() }

// Name identifies the drive in reports.
func (d *RotatingHotSet) Name() string {
	return fmt.Sprintf("rotating-hot-set(%d/%d keys at %.2f, window %d)",
		d.hot, len(d.keys), d.hotFrac, d.window)
}

var _ dist.Dist = (*RotatingHotSet)(nil)
