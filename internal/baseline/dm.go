package baseline

import (
	"fmt"
	"math"

	"repro/internal/cellprobe"
	"repro/internal/hash"
	"repro/internal/rng"
)

// DM is the Dietzfelbinger–Meyer auf der Heide dictionary [4] as the paper's
// §1.3 considers it: keys are split into m ≈ n/(2 ln n) groups by a hash from
// the R^d_{r,m} family (whose even load distribution is the family's point),
// and each group of expected Θ(log n) keys is a small FKS dictionary. The
// hash parameters are stored redundantly (a replicated row per coefficient,
// a block-replicated z row), which is the "decreased by storing the hash
// function redundantly" variant: the remaining hot spot is each group's
// header pair, probed with probability ℓ_group/n = Θ(log n / n) — the
// Θ(ln n / ln ln n)× optimal contention the paper quotes.
//
// Layout (d = 4): rows 0..3 f coefficients, 4..7 g coefficients, 8 the z
// vector in blocks, 9 group headers {subBase, groupSize}, 10 group sub-hash
// {A, B}, 11 sub-bucket headers {dataOffset, subLoad}, 12 per-sub-bucket
// perfect hashes (replicated over each span), 13 data.
type DM struct {
	n, w    int
	m, r    int // groups, range of g
	blkZ    int
	tab     *cellprobe.Table
	top     hash.DM
	gloads  []int // group sizes
	subBase []int // start of each group's sub-header region
	// Per-group sub-level structures, indexed by group then sub-bucket.
	subTop   []hash.Pairwise
	subLoads [][]int
	subOffs  [][]int
	subPhA   [][]uint64
	subPhB   [][]uint64
}

const dmD = 4

const (
	dmZRow    = 2 * dmD
	dmH1Row   = 2*dmD + 1
	dmH2Row   = 2*dmD + 2
	dmSubRow  = 2*dmD + 3
	dmPHRow   = 2*dmD + 4
	dmDataRow = 2*dmD + 5
	dmRows    = 2*dmD + 6
)

// BuildDM constructs a DM dictionary over the given distinct keys.
func BuildDM(keys []uint64, seed uint64) (*DM, error) {
	if err := validateKeys(keys); err != nil {
		return nil, err
	}
	n := len(keys)
	logn := math.Log(math.Max(float64(n), 2))
	m := int(float64(n) / (2 * logn))
	if m < 1 {
		m = 1
	}
	r := int(math.Ceil(math.Sqrt(float64(n))))
	if r < 1 {
		r = 1
	}
	w := 4 * n
	if w < m {
		w = m
	}
	if w < r {
		w = r
	}
	if w < 4 {
		w = 4
	}
	rand := rng.New(seed)

	d := &DM{
		n: n, w: w, m: m, r: r, blkZ: w / r,
		top:     hash.NewDM(rand, dmD, uint64(r), uint64(m)),
		subBase: make([]int, m),
		subTop:  make([]hash.Pairwise, m),
	}
	tab := cellprobe.New(dmRows, w)
	d.tab = tab

	// Replicated coefficient rows and z blocks.
	for i := 0; i < dmD; i++ {
		for j := 0; j < w; j++ {
			tab.Set(i, j, cellprobe.Cell{Lo: d.top.F.Coef[i]})
			tab.Set(dmD+i, j, cellprobe.Cell{Lo: d.top.G.Coef[i]})
		}
	}
	for j := 0; j < w; j++ {
		idx := j / d.blkZ
		if idx >= r {
			idx = r - 1
		}
		tab.Set(dmZRow, j, cellprobe.Cell{Lo: d.top.Z[idx]})
	}
	for j := 0; j < w; j++ {
		tab.Set(dmDataRow, j, cellprobe.Cell{Lo: sentinelLo})
	}

	// Split keys into groups.
	groups := make([][]uint64, m)
	for _, x := range keys {
		g := int(d.top.Eval(x))
		groups[g] = append(groups[g], x)
	}
	d.gloads = make([]int, m)
	d.subLoads = make([][]int, m)
	d.subOffs = make([][]int, m)
	d.subPhA = make([][]uint64, m)
	d.subPhB = make([][]uint64, m)

	subPos := 0  // cursor in the sub-header row
	dataPos := 0 // cursor in the ph/data rows
	for g := 0; g < m; g++ {
		gk := groups[g]
		l := len(gk)
		d.gloads[g] = l
		d.subBase[g] = subPos
		tab.Set(dmH1Row, g, cellprobe.Cell{Lo: uint64(subPos), Hi: uint64(l)})
		if l == 0 {
			continue
		}
		// Sub-level FKS: pairwise hash into l sub-buckets with Σℓᵢ² ≤ 4l.
		sub, subLoads, _, err := drawPerfectFamily(rand, gk, l, 4*l, 256)
		if err != nil {
			return nil, fmt.Errorf("baseline: dm group %d: %w", g, err)
		}
		d.subTop[g] = sub
		d.subLoads[g] = subLoads
		tab.Set(dmH2Row, g, cellprobe.Cell{Lo: sub.A, Hi: sub.B})

		subKeys := make([][]uint64, l)
		for _, x := range gk {
			i := int(sub.Eval(x))
			subKeys[i] = append(subKeys[i], x)
		}
		d.subOffs[g] = make([]int, l)
		d.subPhA[g] = make([]uint64, l)
		d.subPhB[g] = make([]uint64, l)
		for i := 0; i < l; i++ {
			li := subLoads[i]
			d.subOffs[g][i] = dataPos
			tab.Set(dmSubRow, subPos+i, cellprobe.Cell{Lo: uint64(dataPos), Hi: uint64(li)})
			if li == 0 {
				continue
			}
			span := li * li
			if dataPos+span > w {
				return nil, fmt.Errorf("baseline: dm data overflow at group %d", g)
			}
			hstar, _, err := hash.FindPerfect(rand, subKeys[i], uint64(span), 1000, nil)
			if err != nil {
				return nil, fmt.Errorf("baseline: dm sub-bucket (%d,%d): %w", g, i, err)
			}
			d.subPhA[g][i], d.subPhB[g][i] = hstar.A, hstar.B
			for j := 0; j < span; j++ {
				tab.Set(dmPHRow, dataPos+j, cellprobe.Cell{Lo: hstar.A, Hi: hstar.B})
			}
			for _, x := range subKeys[i] {
				tab.Set(dmDataRow, dataPos+int(hstar.Eval(x)), cellprobe.Cell{Lo: x, Hi: occupiedTag})
			}
			dataPos += span
		}
		subPos += l
	}
	return d, nil
}

// Name identifies the structure in experiment reports.
func (d *DM) Name() string { return "dm" }

// N returns the number of stored keys.
func (d *DM) N() int { return d.n }

// Table exposes the cell-probe table.
func (d *DM) Table() *cellprobe.Table { return d.tab }

// MaxProbes returns the worst-case probe count.
func (d *DM) MaxProbes() int { return dmRows }

// Contains answers membership for x, reading only table cells.
func (d *DM) Contains(x uint64, r rng.Source) (bool, error) {
	fc := make([]uint64, dmD)
	gc := make([]uint64, dmD)
	for i := 0; i < dmD; i++ {
		fc[i] = d.tab.Probe(i, i, r.Intn(d.w)).Lo
		gc[i] = d.tab.Probe(dmD+i, dmD+i, r.Intn(d.w)).Lo
	}
	f := hash.PolyFromCoef(fc, uint64(d.m))
	g := hash.PolyFromCoef(gc, uint64(d.r))
	gx := int(g.Eval(x))
	zv := d.tab.Probe(2*dmD, dmZRow, gx*d.blkZ+r.Intn(d.blkZ)).Lo
	if zv >= uint64(d.m) {
		return false, fmt.Errorf("baseline: dm z value %d out of range %d", zv, d.m)
	}
	grp := int((f.Eval(x) + zv) % uint64(d.m))

	h1 := d.tab.Probe(2*dmD+1, dmH1Row, grp)
	subBase, gsize := int(h1.Lo), int(h1.Hi)
	if gsize == 0 {
		return false, nil
	}
	h2 := d.tab.Probe(2*dmD+2, dmH2Row, grp)
	sub := hash.Pairwise{A: h2.Lo, B: h2.Hi, M: uint64(gsize)}
	subIdx := int(sub.Eval(x))
	if subBase+subIdx >= d.w {
		return false, fmt.Errorf("baseline: dm sub-header index %d out of width", subBase+subIdx)
	}
	sh := d.tab.Probe(2*dmD+3, dmSubRow, subBase+subIdx)
	dataOff, subLoad := int(sh.Lo), int(sh.Hi)
	if subLoad == 0 {
		return false, nil
	}
	span := subLoad * subLoad
	if dataOff+span > d.w {
		return false, fmt.Errorf("baseline: dm span [%d,%d) exceeds width %d", dataOff, dataOff+span, d.w)
	}
	phc := d.tab.Probe(2*dmD+4, dmPHRow, dataOff+r.Intn(span))
	hstar := hash.Pairwise{A: phc.Lo, B: phc.Hi, M: uint64(span)}
	dc := d.tab.Probe(2*dmD+5, dmDataRow, dataOff+int(hstar.Eval(x)))
	return dc.Hi == occupiedTag && dc.Lo == x, nil
}

// ProbeSpec returns the exact per-step probe distribution for x.
func (d *DM) ProbeSpec(x uint64) cellprobe.ProbeSpec {
	spec := make(cellprobe.ProbeSpec, 0, dmRows)
	for i := 0; i < 2*dmD; i++ {
		spec = append(spec, cellprobe.UniformSpan(d.tab.Index(i, 0), d.w, 1))
	}
	gx := int(d.top.G.Eval(x))
	spec = append(spec, cellprobe.UniformSpan(d.tab.Index(dmZRow, gx*d.blkZ), d.blkZ, 1))
	grp := int(d.top.Eval(x))
	spec = append(spec, cellprobe.PointSpan(d.tab.Index(dmH1Row, grp), 1))
	gsize := d.gloads[grp]
	empty := func(k int) {
		for i := 0; i < k; i++ {
			spec = append(spec, cellprobe.StepSpec{})
		}
	}
	if gsize == 0 {
		empty(4)
		return spec
	}
	spec = append(spec, cellprobe.PointSpan(d.tab.Index(dmH2Row, grp), 1))
	subIdx := int(d.subTop[grp].Eval(x))
	spec = append(spec, cellprobe.PointSpan(d.tab.Index(dmSubRow, d.subBase[grp]+subIdx), 1))
	subLoad := d.subLoads[grp][subIdx]
	if subLoad == 0 {
		empty(2)
		return spec
	}
	off, span := d.subOffs[grp][subIdx], subLoad*subLoad
	spec = append(spec, cellprobe.UniformSpan(d.tab.Index(dmPHRow, off), span, 1))
	hstar := hash.Pairwise{A: d.subPhA[grp][subIdx], B: d.subPhB[grp][subIdx], M: uint64(span)}
	spec = append(spec, cellprobe.PointSpan(d.tab.Index(dmDataRow, off+int(hstar.Eval(x))), 1))
	return spec
}
