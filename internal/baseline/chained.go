package baseline

import (
	"fmt"

	"repro/internal/cellprobe"
	"repro/internal/hash"
	"repro/internal/rng"
)

// Chained is a separate-chaining hash table: n head pointers and a cell per
// key, chains threaded through a spill region. It is the "standard hash
// table" of the paper's introduction: the head row is indexed directly by
// the hash value, so the head cell of a bucket carries that bucket's whole
// query mass — contention ℓ_i/n, like FKS's headers — and chains cost one
// probe per element walked.
//
// Layout: row 0 hash parameters (column 0 or replicated), row 1 bucket
// heads {firstIndex+1, load}, row 2 entries {key, nextIndex+1}; index 0 in
// a link field means nil.
type Chained struct {
	n          int
	w          int
	replicated bool
	tab        *cellprobe.Table
	h          hash.Pairwise
	loads      []int
	heads      []int // first entry index per bucket, -1 if empty
	next       []int // next entry index, -1 terminates
	entries    []uint64
	maxChain   int
}

const (
	chParamRow = 0
	chHeadRow  = 1
	chDataRow  = 2
)

// BuildChained constructs the table with n buckets (load factor 1).
func BuildChained(keys []uint64, replicated bool, seed uint64) (*Chained, error) {
	if err := validateKeys(keys); err != nil {
		return nil, err
	}
	n := len(keys)
	nb := n
	if nb < 1 {
		nb = 1
	}
	w := n
	if w < nb {
		w = nb
	}
	if w < 1 {
		w = 1
	}
	r := rng.New(seed)
	d := &Chained{
		n: n, w: w, replicated: replicated,
		h:     hash.NewPairwise(r, uint64(nb)),
		heads: make([]int, nb),
		next:  make([]int, n),
		loads: make([]int, nb),
	}
	for i := range d.heads {
		d.heads[i] = -1
	}
	d.entries = append([]uint64(nil), keys...)
	for i, x := range d.entries {
		b := int(d.h.Eval(x))
		d.next[i] = d.heads[b]
		d.heads[b] = i
		d.loads[b]++
		if d.loads[b] > d.maxChain {
			d.maxChain = d.loads[b]
		}
	}

	tab := cellprobe.New(3, w)
	d.tab = tab
	params := cellprobe.Cell{Lo: d.h.A, Hi: d.h.B}
	if replicated {
		for j := 0; j < w; j++ {
			tab.Set(chParamRow, j, params)
		}
	} else {
		tab.Set(chParamRow, 0, params)
	}
	for b := 0; b < nb && b < w; b++ {
		tab.Set(chHeadRow, b, cellprobe.Cell{Lo: uint64(d.heads[b] + 1), Hi: uint64(d.loads[b])})
	}
	for i, x := range d.entries {
		tab.Set(chDataRow, i, cellprobe.Cell{Lo: x, Hi: uint64(d.next[i] + 1)})
	}
	return d, nil
}

// Name identifies the structure in experiment reports.
func (d *Chained) Name() string {
	if d.replicated {
		return "chained+rep"
	}
	return "chained"
}

// N returns the number of stored keys.
func (d *Chained) N() int { return d.n }

// Table exposes the cell-probe table.
func (d *Chained) Table() *cellprobe.Table { return d.tab }

// MaxProbes returns the parameter probe + head probe + longest chain walk.
func (d *Chained) MaxProbes() int { return 2 + d.maxChain }

// Contains answers membership by walking the chain through recorded probes.
func (d *Chained) Contains(x uint64, r rng.Source) (bool, error) {
	var pc cellprobe.Cell
	if d.replicated {
		pc = d.tab.Probe(0, chParamRow, r.Intn(d.w))
	} else {
		pc = d.tab.Probe(0, chParamRow, 0)
	}
	h := hash.Pairwise{A: pc.Lo, B: pc.Hi, M: uint64(max(d.n, 1))}
	b := int(h.Eval(x))
	hc := d.tab.Probe(1, chHeadRow, b)
	cur := int(hc.Lo) - 1
	for step := 2; cur >= 0; step++ {
		if cur >= d.w {
			return false, fmt.Errorf("baseline: chained link %d out of range", cur)
		}
		c := d.tab.Probe(step, chDataRow, cur)
		if c.Lo == x {
			return true, nil
		}
		cur = int(c.Hi) - 1
		if step > d.n+2 {
			return false, fmt.Errorf("baseline: chained walk did not terminate")
		}
	}
	return false, nil
}

// ProbeSpec returns the exact probe sequence for x.
func (d *Chained) ProbeSpec(x uint64) cellprobe.ProbeSpec {
	spec := make(cellprobe.ProbeSpec, 0, d.MaxProbes())
	if d.replicated {
		spec = append(spec, cellprobe.UniformSpan(d.tab.Index(chParamRow, 0), d.w, 1))
	} else {
		spec = append(spec, cellprobe.PointSpan(d.tab.Index(chParamRow, 0), 1))
	}
	b := int(d.h.Eval(x))
	spec = append(spec, cellprobe.PointSpan(d.tab.Index(chHeadRow, b), 1))
	for cur := d.heads[b]; cur >= 0; cur = d.next[cur] {
		spec = append(spec, cellprobe.PointSpan(d.tab.Index(chDataRow, cur), 1))
		if d.entries[cur] == x {
			break
		}
	}
	return spec
}
