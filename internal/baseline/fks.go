package baseline

import (
	"fmt"

	"repro/internal/cellprobe"
	"repro/internal/hash"
	"repro/internal/rng"
)

// FKS is the static dictionary of Fredman, Komlós and Szemerédi [8]:
// a pairwise top-level hash into n buckets, and within each bucket of load ℓ
// a perfect pairwise hash into ℓ² cells. The table layout is
//
//	row 0: top-level hash parameters (column 0 only, or replicated)
//	row 1: bucket headers — column i holds {offset, load} of bucket i
//	row 2: per-bucket perfect hash, replicated across the bucket's ℓ² span
//	row 3: bucket data, placed by the perfect hash
//
// A plain FKS query probes the single parameter cell (contention 1). The
// replicated variant probes a random copy, which removes that hot spot but
// leaves the bucket-header hot spot: the header of bucket i is probed by
// every query hashing there, contention ℓ_i/n — up to Θ(√n/n) since the FKS
// condition only bounds Σℓ², giving the Θ(√n)× optimal contention of §1.3.
type FKS struct {
	n          int
	w          int // row width (≈ 4n)
	nb         int // top-level buckets
	replicated bool
	tab        *cellprobe.Table
	top        hash.Pairwise
	loads      []int
	offsets    []int
	phA, phB   []uint64
	topTries   int
	maxProbes  int
}

const (
	fksParamRow  = 0
	fksHeaderRow = 1
	fksPHRow     = 2
	fksDataRow   = 3
)

// BuildFKS constructs an FKS dictionary over the given distinct keys.
func BuildFKS(keys []uint64, replicated bool, seed uint64) (*FKS, error) {
	if err := validateKeys(keys); err != nil {
		return nil, err
	}
	n := len(keys)
	nb := n
	if nb < 1 {
		nb = 1
	}
	w := 4 * n
	if w < 4 {
		w = 4
	}
	r := rng.New(seed)

	top, loads, tries, err := drawPerfectFamily(r, keys, nb, w, 256)
	if err != nil {
		return nil, err
	}

	d := &FKS{
		n: n, w: w, nb: nb, replicated: replicated,
		top: top, loads: loads, topTries: tries,
		offsets: make([]int, nb),
		phA:     make([]uint64, nb),
		phB:     make([]uint64, nb),
	}
	tab := cellprobe.New(4, w)
	d.tab = tab

	// Parameter row.
	params := cellprobe.Cell{Lo: top.A, Hi: top.B}
	if replicated {
		for j := 0; j < w; j++ {
			tab.Set(fksParamRow, j, params)
		}
	} else {
		tab.Set(fksParamRow, 0, params)
	}

	// Bucket spans, headers, perfect hashes, data.
	for j := 0; j < w; j++ {
		tab.Set(fksDataRow, j, cellprobe.Cell{Lo: sentinelLo})
	}
	buckets := make([][]uint64, nb)
	for _, x := range keys {
		b := int(top.Eval(x))
		buckets[b] = append(buckets[b], x)
	}
	pos := 0
	for b := 0; b < nb; b++ {
		l := loads[b]
		d.offsets[b] = pos
		tab.Set(fksHeaderRow, b, cellprobe.Cell{Lo: uint64(pos), Hi: uint64(l)})
		if l == 0 {
			continue
		}
		span := l * l
		hstar, _, err := hash.FindPerfect(r, buckets[b], uint64(span), 1000, nil)
		if err != nil {
			return nil, fmt.Errorf("baseline: fks bucket %d: %w", b, err)
		}
		d.phA[b], d.phB[b] = hstar.A, hstar.B
		for j := 0; j < span; j++ {
			tab.Set(fksPHRow, pos+j, cellprobe.Cell{Lo: hstar.A, Hi: hstar.B})
		}
		for _, x := range buckets[b] {
			tab.Set(fksDataRow, pos+int(hstar.Eval(x)), cellprobe.Cell{Lo: x, Hi: occupiedTag})
		}
		pos += span
	}
	d.maxProbes = 4
	return d, nil
}

// Name identifies the structure in experiment reports.
func (d *FKS) Name() string {
	if d.replicated {
		return "fks+rep"
	}
	return "fks"
}

// N returns the number of stored keys.
func (d *FKS) N() int { return d.n }

// Table exposes the cell-probe table.
func (d *FKS) Table() *cellprobe.Table { return d.tab }

// MaxProbes returns the worst-case probe count (4).
func (d *FKS) MaxProbes() int { return d.maxProbes }

// TopTries reports how many top-level hash draws the FKS condition needed.
func (d *FKS) TopTries() int { return d.topTries }

// Contains answers membership for x, reading only table cells.
func (d *FKS) Contains(x uint64, r rng.Source) (bool, error) {
	var pc cellprobe.Cell
	if d.replicated {
		pc = d.tab.Probe(0, fksParamRow, r.Intn(d.w))
	} else {
		pc = d.tab.Probe(0, fksParamRow, 0)
	}
	top := hash.Pairwise{A: pc.Lo, B: pc.Hi, M: uint64(d.nb)}
	b := int(top.Eval(x))
	hc := d.tab.Probe(1, fksHeaderRow, b)
	off, l := int(hc.Lo), int(hc.Hi)
	if l == 0 {
		return false, nil
	}
	span := l * l
	if off+span > d.w {
		return false, fmt.Errorf("baseline: fks bucket span [%d,%d) exceeds width %d", off, off+span, d.w)
	}
	var phc cellprobe.Cell
	if d.replicated {
		phc = d.tab.Probe(2, fksPHRow, off+r.Intn(span))
	} else {
		phc = d.tab.Probe(2, fksPHRow, off)
	}
	hstar := hash.Pairwise{A: phc.Lo, B: phc.Hi, M: uint64(span)}
	dc := d.tab.Probe(3, fksDataRow, off+int(hstar.Eval(x)))
	return dc.Hi == occupiedTag && dc.Lo == x, nil
}

// ProbeSpec returns the exact per-step probe distribution for x.
func (d *FKS) ProbeSpec(x uint64) cellprobe.ProbeSpec {
	spec := make(cellprobe.ProbeSpec, 0, 4)
	if d.replicated {
		spec = append(spec, cellprobe.UniformSpan(d.tab.Index(fksParamRow, 0), d.w, 1))
	} else {
		spec = append(spec, cellprobe.PointSpan(d.tab.Index(fksParamRow, 0), 1))
	}
	b := int(d.top.Eval(x))
	spec = append(spec, cellprobe.PointSpan(d.tab.Index(fksHeaderRow, b), 1))
	l := d.loads[b]
	if l == 0 {
		spec = append(spec, cellprobe.StepSpec{}, cellprobe.StepSpec{})
		return spec
	}
	off, span := d.offsets[b], l*l
	if d.replicated {
		spec = append(spec, cellprobe.UniformSpan(d.tab.Index(fksPHRow, off), span, 1))
	} else {
		spec = append(spec, cellprobe.PointSpan(d.tab.Index(fksPHRow, off), 1))
	}
	hstar := hash.Pairwise{A: d.phA[b], B: d.phB[b], M: uint64(span)}
	spec = append(spec, cellprobe.PointSpan(d.tab.Index(fksDataRow, off+int(hstar.Eval(x))), 1))
	return spec
}
