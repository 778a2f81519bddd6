package telemetry

import (
	"sort"
	"sync/atomic"

	"repro/internal/telemetry/events"
)

// HotKeyConfig tunes the write-absorption classifier. The zero value selects
// the defaults noted on each field.
type HotKeyConfig struct {
	// PromoteOps is the weighted claim count one key must accumulate within
	// a single phase to be promoted into the absorbed-hot set. Default 128.
	PromoteOps uint64
	// RetryWeight is the extra weight a claim contributes per CAS retry it
	// suffered — contended claims count harder than merely frequent ones.
	// Default 8.
	RetryWeight uint64
	// DemoteOps is the absorbed-write count per phase below which a hot key
	// is considered cool. Default PromoteOps/4. Together with DemotePhases
	// this is the hysteresis deadband: a key must climb past PromoteOps to
	// enter and fall below DemoteOps for DemotePhases consecutive phases to
	// leave, so a key oscillating in between never flaps.
	DemoteOps uint64
	// DemotePhases is how many consecutive cool phases a hot key survives
	// before demotion. Default 2.
	DemotePhases int
	// MaxHot caps the absorbed-hot set size. Default 64.
	MaxHot int
	// SketchSlots sizes the candidate-tracking sketch (rounded up to a
	// power of two). Default 256.
	SketchSlots int
}

func (c HotKeyConfig) withDefaults() HotKeyConfig {
	if c.PromoteOps == 0 {
		c.PromoteOps = 128
	}
	if c.RetryWeight == 0 {
		c.RetryWeight = 8
	}
	if c.DemoteOps == 0 {
		c.DemoteOps = c.PromoteOps / 4
		if c.DemoteOps == 0 {
			c.DemoteOps = 1
		}
	}
	if c.DemotePhases == 0 {
		c.DemotePhases = 2
	}
	if c.MaxHot == 0 {
		c.MaxHot = 64
	}
	if c.SketchSlots == 0 {
		c.SketchSlots = 256
	}
	return c
}

// hotSlot is one sketch cell: a candidate key (stored +1 so zero means
// empty) and its weighted claim count this phase, padded to a cache line so
// concurrent observers of different candidates never false-share.
type hotSlot struct {
	key   atomic.Uint64
	count atomic.Uint64
	_     [6]uint64
}

// HotKeyClassifier is the hysteresis controller that decides which keys the
// dynamic dictionary absorbs. It tracks promotion candidates in a fixed
// lossy-counting sketch fed from the lock-free claim path (ObserveClaim
// takes no locks; each cell is its own padded cache line) and reclassifies
// at phase boundaries, where the caller serializes it under the dictionary
// mutex.
//
// It implements dynamic.HotClassifier. One classifier serves one dictionary
// (one shard); shards classify independently, matching their independent
// phase boundaries.
type HotKeyClassifier struct {
	cfg      HotKeyConfig
	slots    []hotSlot
	mask     uint64
	pressure atomic.Bool

	// Reclassify-only state (serialized by the dictionary mutex).
	cool map[uint64]int // consecutive cool phases per current hot key

	// Flight-recorder sink for HotKeyPromoted/HotKeyDemoted events, nil
	// when unattached. Emitted keys are hashed (sketchHash), never raw —
	// the timeline may be exposed on a debug endpoint and must not leak
	// the keyset.
	events      *events.Log
	eventsShard int
}

// NewHotKeyClassifier builds a classifier with the given tuning (zero
// fields select defaults).
func NewHotKeyClassifier(cfg HotKeyConfig) *HotKeyClassifier {
	cfg = cfg.withDefaults()
	n := 1
	for n < cfg.SketchSlots {
		n <<= 1
	}
	return &HotKeyClassifier{
		cfg:   cfg,
		slots: make([]hotSlot, n),
		mask:  uint64(n - 1),
		cool:  make(map[uint64]int),
	}
}

// SetEventLog attaches the flight recorder the classifier emits promotion
// and demotion events into, labeled with the given shard index. Call before
// the classifier is shared (the facade attaches it at construction); events
// carry hashed keys only.
func (c *HotKeyClassifier) SetEventLog(l *events.Log, shard int) {
	c.events = l
	c.eventsShard = shard
}

// sketchHash spreads keys over the sketch (splitmix64 finalizer).
func sketchHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ObserveClaim feeds one completed claim walk into the sketch. Lossy
// counting on a CAS slot: a colliding candidate drains the incumbent's
// count and takes the cell over when it hits bottom, so a sustained hot key
// wins its cell even against background traffic. Crossing PromoteOps raises
// the pressure flag exactly once per crossing.
func (c *HotKeyClassifier) ObserveClaim(key uint64, probes, casRetries uint64) {
	w := 1 + casRetries*c.cfg.RetryWeight
	s := &c.slots[sketchHash(key)&c.mask]
	stored := key + 1 // slot encoding: 0 = empty
	for {
		k := s.key.Load()
		if k == stored {
			break
		}
		if k != 0 {
			// Another candidate owns the cell: spend our weight draining it.
			if cnt := s.count.Load(); cnt > w {
				s.count.CompareAndSwap(cnt, cnt-w)
				return
			}
		}
		if s.key.CompareAndSwap(k, stored) {
			s.count.Store(0)
			break
		}
	}
	n := s.count.Add(w)
	if n >= c.cfg.PromoteOps && n-w < c.cfg.PromoteOps {
		c.pressure.Store(true)
	}
}

// Pressure reports (and consumes) a pending promotion signal. The fast-path
// cost when idle is one atomic load.
func (c *HotKeyClassifier) Pressure() bool {
	if !c.pressure.Load() {
		return false
	}
	return c.pressure.Swap(false)
}

// Reclassify computes the next phase's hot set: current keys survive unless
// their absorbed writes stayed below DemoteOps for DemotePhases consecutive
// phases (the hysteresis tail), then sketch candidates at or above
// PromoteOps join, hottest first, up to MaxHot. The sketch counts reset —
// each phase is a fresh promotion window — and any pending pressure is
// consumed. Callers serialize Reclassify (the dictionary mutex does).
func (c *HotKeyClassifier) Reclassify(current []uint64, writes func(key uint64) uint64) []uint64 {
	next := make([]uint64, 0, len(current))
	for _, k := range current {
		if writes(k) >= c.cfg.DemoteOps {
			c.cool[k] = 0
			next = append(next, k)
			continue
		}
		c.cool[k]++
		if c.cool[k] >= c.cfg.DemotePhases {
			delete(c.cool, k)
			if c.events != nil {
				c.events.Emit(events.HotKeyDemoted, c.eventsShard, sketchHash(k), 0, 0)
			}
			continue
		}
		next = append(next, k)
	}

	type candidate struct {
		key   uint64
		count uint64
	}
	keep := make(map[uint64]bool, len(next))
	for _, k := range next {
		keep[k] = true
	}
	var cands []candidate
	for i := range c.slots {
		s := &c.slots[i]
		k := s.key.Load()
		cnt := s.count.Load()
		s.count.Store(0)
		if k == 0 || cnt < c.cfg.PromoteOps || keep[k-1] {
			continue
		}
		cands = append(cands, candidate{key: k - 1, count: cnt})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].count != cands[j].count {
			return cands[i].count > cands[j].count
		}
		return cands[i].key < cands[j].key
	})
	for _, cand := range cands {
		if len(next) >= c.cfg.MaxHot {
			break
		}
		next = append(next, cand.key)
		c.cool[cand.key] = 0
		if c.events != nil {
			c.events.Emit(events.HotKeyPromoted, c.eventsShard, sketchHash(cand.key), cand.count, 0)
		}
	}
	if len(next) > c.cfg.MaxHot {
		next = next[:c.cfg.MaxHot]
	}
	c.pressure.Store(false)
	return next
}
