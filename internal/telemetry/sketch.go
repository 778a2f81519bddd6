package telemetry

import (
	"sort"
	"sync/atomic"
)

// StepCellSketch is a reservoir-sampled sketch of the live (step, cell)
// probe stream: which cells each query step actually lands on, the joint
// distribution the per-step and per-cell marginal counters cannot recover.
// The exact per-step × per-cell matrix is the sequential Recorder's job;
// this sketch is the always-on production estimate — O(stripes × slots)
// memory regardless of table size or step count.
//
// Each telemetry stripe owns one reservoir run with Vitter's Algorithm R:
// the first R offers fill the slots, after which the i-th offer replaces a
// random slot with probability R/i, so every recorded probe has (in the
// single-writer case) an equal chance of being retained. Offers land on the
// calling goroutine's stripe — the same handle discipline as the striped
// counters — so concurrent writers on different stripes never share a
// cache line. Writers that do share a stripe interleave their counter
// increments and slot stores; the reservoir then only approximates
// uniformity, which is fine for a hot-cell sketch (the hottest pairs
// dominate every stripe regardless of interleaving). Slot words are atomic
// so a concurrent Snapshot tears nothing.
//
// Snapshot merges the stripes and reports, per step, the hottest cells by
// retained-sample count — the "which cell does step t hammer" table the
// conflict-attribution style of performance debugging needs.
type StepCellSketch struct {
	stripes []sketchStripe
	mask    uint64
}

// sketchStripe is one stripe's reservoir. count is the number of offers the
// stripe has seen; slots hold packed (step, cell) words (+1, so 0 = empty).
type sketchStripe struct {
	count atomic.Uint64
	slots []atomic.Uint64
	_     [6]uint64 // keep adjacent stripes' count words off one line
}

// packStepCell packs a (step, cell) pair into one word: step in the high
// bits, cell in the low 40 (a 2^40-cell table is far beyond any build).
func packStepCell(step, cell int) uint64 {
	return uint64(step)<<40 | uint64(cell)&(1<<40-1)
}

// unpackStepCell reverses packStepCell.
func unpackStepCell(w uint64) (step, cell int) {
	return int(w >> 40), int(w & (1<<40 - 1))
}

// defaultSketchSlots is the per-stripe reservoir size when the
// configuration leaves SketchSlots zero.
const defaultSketchSlots = 256

// NewStepCellSketch creates a sketch with the given per-stripe reservoir
// size (≤ 0 selects the default 256) across the given stripe count
// (rounded up to a power of two).
func NewStepCellSketch(slots, stripes int) *StepCellSketch {
	if slots <= 0 {
		slots = defaultSketchSlots
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	s := &StepCellSketch{stripes: make([]sketchStripe, n), mask: uint64(n - 1)}
	for i := range s.stripes {
		s.stripes[i].slots = make([]atomic.Uint64, slots)
	}
	return s
}

// offer feeds one recorded probe into the calling goroutine's reservoir,
// advancing the handle's splitmix64 state for the replacement draw.
func (s *StepCellSketch) offer(h *handle, step, cell int) {
	st := &s.stripes[h.stripe&s.mask]
	n := st.count.Add(1) - 1
	r := uint64(len(st.slots))
	if n < r {
		st.slots[n].Store(packStepCell(step, cell) + 1)
		return
	}
	if j := h.draw() % (n + 1); j < r {
		st.slots[j].Store(packStepCell(step, cell) + 1)
	}
}

// StepCellView is one step's row of the hottest-cell table.
type StepCellView struct {
	// Step is the query step (StepCap aggregates everything beyond it).
	Step int `json:"step"`
	// Samples is how many retained reservoir samples landed on this step.
	Samples uint64 `json:"samples"`
	// Cells lists the step's hottest cells by retained-sample count,
	// hottest first.
	Cells []StepCellHot `json:"cells"`
}

// StepCellHot is one (cell, weight) entry of a step's hottest-cell row.
type StepCellHot struct {
	Cell int `json:"cell"`
	// Samples is the retained-sample count — an estimate proportional to
	// the cell's share of the step's probe mass.
	Samples uint64 `json:"samples"`
	// Share is Samples over the step's retained total.
	Share float64 `json:"share"`
}

// Offers returns the total number of probes offered to the sketch.
func (s *StepCellSketch) Offers() uint64 {
	var total uint64
	for i := range s.stripes {
		total += s.stripes[i].count.Load()
	}
	return total
}

// Snapshot merges every stripe's reservoir and returns the per-step
// hottest-cell table, steps ascending, at most topK cells per step.
func (s *StepCellSketch) Snapshot(topK int) []StepCellView {
	if topK <= 0 {
		topK = 3
	}
	// Count retained samples per (step, cell) pair across stripes.
	counts := make(map[uint64]uint64)
	for i := range s.stripes {
		st := &s.stripes[i]
		for j := range st.slots {
			if w := st.slots[j].Load(); w != 0 {
				counts[w-1]++
			}
		}
	}
	if len(counts) == 0 {
		return nil
	}
	perStep := make(map[int][]StepCellHot)
	stepTotals := make(map[int]uint64)
	for w, c := range counts {
		step, cell := unpackStepCell(w)
		perStep[step] = append(perStep[step], StepCellHot{Cell: cell, Samples: c})
		stepTotals[step] += c
	}
	steps := make([]int, 0, len(perStep))
	for step := range perStep {
		steps = append(steps, step)
	}
	sort.Ints(steps)
	out := make([]StepCellView, 0, len(steps))
	for _, step := range steps {
		cells := perStep[step]
		sort.Slice(cells, func(a, b int) bool {
			if cells[a].Samples != cells[b].Samples {
				return cells[a].Samples > cells[b].Samples
			}
			return cells[a].Cell < cells[b].Cell
		})
		if len(cells) > topK {
			cells = cells[:topK]
		}
		total := stepTotals[step]
		for i := range cells {
			cells[i].Share = float64(cells[i].Samples) / float64(total)
		}
		out = append(out, StepCellView{Step: step, Samples: total, Cells: cells})
	}
	return out
}
