// Package core implements the paper's primary contribution (§2): the
// low-contention static dictionary of Theorem 3 — an
// (O(n), b, O(1), O(1/n))-balanced cell-probing scheme for membership under
// query distributions that are uniform within the positive set and uniform
// within the negative set.
//
// # Construction (§2.2)
//
// Draw f ∈ H^d_s, g ∈ H^d_r, z ∈ [s]^r and form the DM-family function
// h(x) = (f(x) + z_{g(x)}) mod s assigning keys to s buckets, and
// h′ = h mod m arranging the buckets into m groups of s/m buckets each.
// Resample until property P(S) holds:
//
//	∀i ∈ [r]: ℓ(S, g, i) ≤ c·n/r          (g-blocks are balanced)
//	∀i ∈ [m]: ℓ(S, h′, i) ≤ c·n/m         (groups are balanced)
//	Σ_i ℓ(S, h, i)² ≤ s                   (FKS condition)
//
// The table stores, in O(1) rows of s cells each: the 2d hash coefficients
// (each replicated across a full row), the vector z (replicated s/r times),
// the group base addresses GBAS (replicated s/m times), ρ = O(1) rows of
// unary-coded group histograms (replicated s/m times), and per bucket a
// pairwise perfect hash plus the bucket data in the ℓ² cells the bucket owns.
// The model accounts for every replica; the Go heap stores each replicated
// value once (cellprobe block rows), so only the perfect-hash and data rows
// hold s cells each.
//
// # Query (§2.3)
//
// Each probe picks a uniformly random replica, so every step spreads its
// probability mass over a range whose size P(S) guarantees to be within a
// constant factor of n times the range's query mass — contention O(1/n) per
// step for uniform-positive and (via Lemma 10) uniform-negative queries.
//
// # Deviations from the paper's presentation
//
//   - Replicas are laid out in contiguous blocks (cell j of row zRow holds
//     z[j / (s/r)]) rather than residue classes (z[j mod r]). The replica
//     counts and therefore all contention bounds are unchanged; contiguous
//     blocks let the exact contention analyzer represent every probe
//     distribution as a uniform interval.
//   - Cells are 128 bits wide (b = Θ(log N) for the 2^61 universe), so one
//     cell holds both coefficients of a bucket's pairwise perfect hash and
//     the paper's one-probe-per-row layout is preserved exactly.
//   - The constants (c, d, δ, α, β) are configurable with defaults
//     satisfying Lemma 9's constraints; because P(S) is an asymptotic
//     1/2 − o(1) event, the builder escalates the slack constant c after
//     a bounded number of failed draws and reports the escalation.
package core

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
	"repro/internal/hash"
	"repro/internal/rng"
	"repro/internal/scheme"
)

// Sentinel fills unoccupied data cells. Occupied cells carry Hi = occupiedTag.
const (
	sentinelLo  = ^uint64(0)
	occupiedTag = uint64(1)
)

// Params are the construction constants of §2.2. Zero values select the
// defaults, which satisfy every constraint of Lemma 9:
// d = 4 (> 2), δ = 1/2 ∈ (2/(d+2), 1 − 1/d), c = 2e, α = 2 > d/(c(ln c − 1)),
// β = 4 ≥ 2.
type Params struct {
	// D is the independence degree d of the hash families; must be > 2.
	D int
	// Delta sets r = ⌈n^Delta⌉; must lie in (2/(D+2), 1 − 1/D).
	Delta float64
	// Alpha sets the group count m ≈ n / (Alpha·ln n).
	Alpha float64
	// Beta sets the bucket count s ≈ Beta·n; must be ≥ 2.
	Beta float64
	// C is the load-slack constant c of property P(S); must be > e.
	C float64
	// MaxTriesPerSlack bounds the number of (f, g, z) draws at each slack
	// level before c is multiplied by SlackGrowth.
	MaxTriesPerSlack int
	// SlackGrowth is the escalation factor applied to c; must be > 1.
	SlackGrowth float64
	// MaxEscalations bounds the number of slack escalations.
	MaxEscalations int
	// PerfectMaxTries bounds the per-bucket perfect-hash search.
	PerfectMaxTries int
	// Strided selects the paper's literal replica layout (copy j of z at
	// column j mod r, of group data at column j mod m) instead of the
	// default contiguous blocks. The replica counts, probe counts and
	// contention are identical; the strided layout exists to validate
	// that equivalence empirically. ProbeSpec (the exact analyzer)
	// requires the block layout and panics for strided dictionaries —
	// use Monte-Carlo contention measurement instead.
	Strided bool
	// BatchGroup is the wavefront width G of the batch query path
	// (ContainsBatch): up to G queries are kept in flight, each evaluating
	// the probe stage it prefetched on the previous round, so the dependent
	// cache misses of G independent probe chains overlap. 0 selects the
	// default (8); 1 degenerates to query-at-a-time; values above 64 are
	// clamped at use. Answers and per-query probe cells are identical for
	// every G — only throughput and the probe interleaving across the batch
	// change.
	BatchGroup int
}

// DefaultParams returns the paper-faithful defaults described on Params.
func DefaultParams() Params {
	return Params{
		D:                4,
		Delta:            0.5,
		Alpha:            2,
		Beta:             4,
		C:                2 * math.E,
		MaxTriesPerSlack: 48,
		SlackGrowth:      1.5,
		MaxEscalations:   10,
		PerfectMaxTries:  1000,
	}
}

func (p Params) withDefaults() Params {
	def := DefaultParams()
	if p.D == 0 {
		p.D = def.D
	}
	if p.Delta == 0 {
		p.Delta = def.Delta
	}
	if p.Alpha == 0 {
		p.Alpha = def.Alpha
	}
	if p.Beta == 0 {
		p.Beta = def.Beta
	}
	if p.C == 0 {
		p.C = def.C
	}
	if p.MaxTriesPerSlack == 0 {
		p.MaxTriesPerSlack = def.MaxTriesPerSlack
	}
	if p.SlackGrowth == 0 {
		p.SlackGrowth = def.SlackGrowth
	}
	if p.MaxEscalations == 0 {
		p.MaxEscalations = def.MaxEscalations
	}
	if p.PerfectMaxTries == 0 {
		p.PerfectMaxTries = def.PerfectMaxTries
	}
	return p
}

func (p Params) validate() error {
	if p.D <= 2 {
		return fmt.Errorf("core: d = %d must be > 2", p.D)
	}
	lo, hi := 2.0/float64(p.D+2), 1.0-1.0/float64(p.D)
	if p.Delta <= lo || p.Delta >= hi {
		return fmt.Errorf("core: delta = %v outside (%v, %v)", p.Delta, lo, hi)
	}
	if p.C <= math.E {
		return fmt.Errorf("core: c = %v must exceed e", p.C)
	}
	if p.Beta < 2 {
		return fmt.Errorf("core: beta = %v must be ≥ 2", p.Beta)
	}
	if p.Alpha <= 0 {
		return fmt.Errorf("core: alpha = %v must be positive", p.Alpha)
	}
	if p.SlackGrowth <= 1 {
		return fmt.Errorf("core: slack growth %v must exceed 1", p.SlackGrowth)
	}
	if p.BatchGroup < 0 {
		return fmt.Errorf("core: batch group %d must be ≥ 0", p.BatchGroup)
	}
	return nil
}

// BuildReport records what the construction actually did — the evidence for
// experiment T4 (expected O(1) resampling rounds, O(n) work).
type BuildReport struct {
	N             int     // number of keys
	S             int     // buckets / row width (the paper's s)
	R             int     // range of g
	M             int     // number of groups
	Rho           int     // histogram rows
	Rows          int     // total table rows
	Cells         int     // total cells (space in cells)
	HashTries     int     // (f, g, z) draws until P(S) held
	Escalations   int     // slack escalations applied
	FinalC        float64 // slack constant in force when P(S) held
	PerfectTries  int     // total per-bucket perfect-hash draws
	MaxBucketLoad int     // max_i ℓ(S, h, i)
	MaxGroupLoad  int     // max_i ℓ(S, h′, i)
	MaxGLoad      int     // max_i ℓ(S, g, i)
	SumSquares    int     // Σ ℓ(S, h, i)²
}

// Dict is a built low-contention static dictionary. The query side reads
// only table cells; the hash functions and load vectors retained here serve
// the exact contention analyzer (ProbeSpec) and the test oracles.
type Dict struct {
	n       int
	d       int
	s       int // buckets and row width
	r       int // range of g
	m       int // groups
	blkZ    int // replica block width of the z row: ⌊s/r⌋
	blkG    int // replica block width of GBAS/histogram rows: s/m
	rho     int
	strided bool // paper-literal residue-class replica layout

	batchGroup int // wavefront width G of the batch query path (0 = default)

	tab *cellprobe.Table

	f, g    hash.Poly
	z       []uint64
	hLoads  []int    // ℓ(S, h, i) per bucket i ∈ [s]
	offsets []int    // start of bucket i's ℓ² span in the ph/data rows
	phA     []uint64 // per-bucket perfect hash coefficient A
	phB     []uint64 // per-bucket perfect hash coefficient B

	report BuildReport
}

// sizes derives (s, r, m) from n per §2.2.
func sizes(n int, p Params) (s, r, m int) {
	logn := math.Log(math.Max(float64(n), 2))
	m = int(float64(n) / (p.Alpha * logn))
	if m < 1 {
		m = 1
	}
	r = int(math.Ceil(math.Pow(float64(n), p.Delta)))
	if r < 1 {
		r = 1
	}
	sMin := int(math.Ceil(p.Beta * float64(n)))
	if sMin < m {
		sMin = m
	}
	if sMin < r {
		sMin = r
	}
	if sMin < 1 {
		sMin = 1
	}
	// Round s up to a multiple of m so that h′ = h mod m is uniform over
	// R^d_{r,m} (§2.2 requires m | s).
	s = ((sMin + m - 1) / m) * m
	return s, r, m
}

// Build constructs the dictionary for the given distinct keys. Keys must be
// below hash.MaxKey. The seed determines every random choice, making builds
// reproducible.
func Build(keys []uint64, p Params, seed uint64) (*Dict, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if err := scheme.ValidateKeys(keys); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	n := len(keys)
	s, r, m := sizes(n, p)
	d := p.D
	rand := rng.New(seed)

	dict := &Dict{
		n: n, d: d, s: s, r: r, m: m,
		blkZ: s / r, blkG: s / m,
		strided:    p.Strided,
		batchGroup: p.BatchGroup,
	}
	if err := dict.drawHashes(keys, p, rand); err != nil {
		return nil, err
	}
	if err := dict.layout(keys, p, rand); err != nil {
		return nil, err
	}
	// Self-check: every key must be retrievable through the real query path,
	// answered as one batch on its own random stream.
	found := make([]bool, n)
	if err := dict.ContainsBatch(keys, found, rng.New(seed^0x5eed), nil); err != nil {
		return nil, fmt.Errorf("core: self-check query failed: %w", err)
	}
	for i, ok := range found {
		if !ok {
			return nil, fmt.Errorf("core: self-check lost key %d", keys[i])
		}
	}
	return dict, nil
}

// hashDraw is one candidate (f, g, z) together with its property-P(S)
// verdict and the load statistics the build report records.
type hashDraw struct {
	f, g      hash.Poly
	z         []uint64
	hLoads    []int
	maxBucket int
	maxGroup  int
	maxG      int
	ss        int
	ok        bool
}

// drawCandidate draws one (f, g, z) from rand and checks property P(S) at
// slack c.
func (dict *Dict) drawCandidate(keys []uint64, c float64, rand *rng.RNG) hashDraw {
	n, s, r, m, d := dict.n, dict.s, dict.r, dict.m, dict.d
	f := hash.NewPoly(rand, d, uint64(s))
	g := hash.NewPoly(rand, d, uint64(r))
	z := make([]uint64, r)
	for i := range z {
		z[i] = rand.Uint64n(uint64(s))
	}
	cand := hashDraw{f: f, g: g, z: z}
	hEval := func(x uint64) uint64 { return (f.Eval(x) + z[g.Eval(x)]) % uint64(s) }

	gLoads := hash.Loads(keys, g.Eval, r)
	if float64(hash.MaxLoad(gLoads)) > c*float64(n)/float64(r) {
		return cand
	}
	hLoads := hash.Loads(keys, hEval, s)
	hpLoads := make([]int, m)
	for i, l := range hLoads {
		hpLoads[i%m] += l
	}
	if float64(hash.MaxLoad(hpLoads)) > c*float64(n)/float64(m) {
		return cand
	}
	ss := hash.SumSquares(hLoads)
	if ss > s {
		return cand
	}
	cand.hLoads = hLoads
	cand.maxBucket = hash.MaxLoad(hLoads)
	cand.maxGroup = hash.MaxLoad(hpLoads)
	cand.maxG = hash.MaxLoad(gLoads)
	cand.ss = ss
	cand.ok = true
	return cand
}

// drawHashes resamples (f, g, z) until property P(S) holds, escalating the
// slack constant c if a slack level exhausts its budget, and fills the
// build report from the accepted draw.
func (dict *Dict) drawHashes(keys []uint64, p Params, rand *rng.RNG) error {
	c := p.C
	tries := 0
	for esc := 0; esc <= p.MaxEscalations; esc++ {
		for t := 0; t < p.MaxTriesPerSlack; t++ {
			tries++
			cand := dict.drawCandidate(keys, c, rand)
			if !cand.ok {
				continue
			}
			dict.f, dict.g, dict.z, dict.hLoads = cand.f, cand.g, cand.z, cand.hLoads
			dict.report = BuildReport{
				N: dict.n, S: dict.s, R: dict.r, M: dict.m,
				HashTries: tries, Escalations: esc, FinalC: c,
				MaxBucketLoad: cand.maxBucket,
				MaxGroupLoad:  cand.maxGroup,
				MaxGLoad:      cand.maxG,
				SumSquares:    cand.ss,
			}
			return nil
		}
		c *= p.SlackGrowth
	}
	return fmt.Errorf("core: property P(S) not satisfied for n=%d after %d tries and %d escalations", dict.n, tries, p.MaxEscalations)
}

// phSource supplies the perfect hash for one bucket's keys and span. Build
// searches with FindPerfect; deserialization replays stored coefficients.
type phSource func(bucket int, keys []uint64, span int) (hash.Pairwise, int, error)

// layout fills the table rows from the accepted hash functions.
func (dict *Dict) layout(keys []uint64, p Params, rand *rng.RNG) error {
	maxLoad := hash.MaxLoad(dict.hLoads)
	seen := make([]bool, maxLoad*maxLoad) // every bucket's search shares it
	finder := func(_ int, bucketKeys []uint64, span int) (hash.Pairwise, int, error) {
		return hash.FindPerfect(rand, bucketKeys, uint64(span), p.PerfectMaxTries, seen)
	}
	dict.phA = make([]uint64, dict.s)
	dict.phB = make([]uint64, dict.s)
	return dict.layoutWith(keys, finder)
}

// layoutWith fills the table rows, obtaining per-bucket perfect hashes from
// the given source and recording them in phA/phB, which the caller sizes.
func (dict *Dict) layoutWith(keys []uint64, ph phSource) error {
	s, m, d := dict.s, dict.m, dict.d
	bucketsPerGroup := s / m

	// Assign keys to buckets by counting sort over the accepted loads. Each
	// cursor starts at its bucket's first slot and ends one past its last,
	// so bucket b's keys are byBucket[end[b]-ℓ_b : end[b]], in input order.
	end := make([]int, s)
	for b, at := 0, 0; b < s; b++ {
		end[b] = at
		at += dict.hLoads[b]
	}
	byBucket := make([]uint64, len(keys))
	for _, x := range keys {
		b := dict.hEval(x)
		byBucket[end[b]] = x
		end[b]++
	}

	// Group base addresses and per-bucket offsets (buckets ordered by
	// (group, position-in-group), spans of ℓ² cells each).
	gbas := make([]uint64, m)
	offsets := make([]int, s)
	pos := 0
	for grp := 0; grp < m; grp++ {
		gbas[grp] = uint64(pos)
		for k := 0; k < bucketsPerGroup; k++ {
			b := k*m + grp
			offsets[b] = pos
			pos += dict.hLoads[b] * dict.hLoads[b]
		}
	}
	if pos > s {
		return fmt.Errorf("core: bucket spans need %d cells > s = %d despite FKS condition", pos, s)
	}
	dict.offsets = offsets

	// Group histograms, encoded one after another into one word arena
	// (group grp's words are arena[wordAt[grp]:wordAt[grp+1]]), and ρ
	// from the realized maximum bit length. A group's histogram takes
	// bucketsPerGroup separators plus its keys in bits.
	arena := make([]uint64, 0, (len(keys)+s)/64+m)
	wordAt := make([]int, m+1)
	loads := make([]int, bucketsPerGroup)
	maxBits := 1
	for grp := 0; grp < m; grp++ {
		for k := range loads {
			loads[k] = dict.hLoads[k*m+grp]
		}
		var nbits int
		arena, nbits = bitvec.AppendHistogram(arena, loads)
		maxBits = max(maxBits, nbits)
		wordAt[grp+1] = len(arena)
	}
	rho := (maxBits + 127) / 128
	dict.rho = rho
	rows := 2*d + 4 + rho
	tab := cellprobe.New(rows, s)
	dict.tab = tab

	// The replicated rows are block rows holding each distinct value once
	// (cellprobe.Table.SetBlockRow); the model still accounts for s cells
	// per row. Rows 0..2d−1: the hash coefficients, one value per row.
	coef := make([]cellprobe.Cell, 2*d)
	for i := 0; i < d; i++ {
		coef[i].Lo, coef[d+i].Lo = dict.f.Coef[i], dict.g.Coef[i]
	}
	for i := range coef {
		tab.SetBlockRow(i, coef[i:i+1:i+1], s)
	}
	// Row 2d: z, in blocks of width ⌊s/r⌋ (leftover cells repeat z[r−1]),
	// or the paper's residue classes when strided. Rows 2d+1 .. 2d+1+ρ hold
	// one value per group: GBAS, then the group histograms (word pair w of
	// group grp in histogram row w); gvals[w·m + grp] is row 2d+1+w's.
	replicate := func(row int, values []cellprobe.Cell, blk int) {
		if dict.strided {
			tab.SetResidueRow(row, values)
		} else {
			tab.SetBlockRow(row, values, blk)
		}
	}
	zvals := make([]cellprobe.Cell, dict.r)
	for i, v := range dict.z {
		zvals[i].Lo = v
	}
	replicate(dict.zRow(), zvals, dict.blkZ)
	gvals := make([]cellprobe.Cell, (1+rho)*m)
	for grp, v := range gbas {
		gvals[grp].Lo = v
		for i, word := range arena[wordAt[grp]:wordAt[grp+1]] {
			c := &gvals[(1+i/2)*m+grp]
			if i%2 == 0 {
				c.Lo = word
			} else {
				c.Hi = word
			}
		}
	}
	for w := 0; w <= rho; w++ {
		replicate(dict.gbasRow()+w, gvals[w*m:(w+1)*m:(w+1)*m], dict.blkG)
	}
	// Only the perfect-hash and data rows are dense. The perfect-hash row
	// is written, and probed, only on the bucket spans, which end at pos;
	// declare its tail cold before the first dense write so that huge pages
	// never fault it in.
	tab.ColdTail(dict.phRow(), pos)
	// Last two rows: per-bucket perfect hashes and data.
	phRow, dataRow := dict.phRow(), dict.dataRow()
	for j := 0; j < s; j++ {
		tab.Set(dataRow, j, cellprobe.Cell{Lo: sentinelLo})
	}
	perfectTries := 0
	for b := 0; b < s; b++ {
		l := dict.hLoads[b]
		if l == 0 {
			continue
		}
		bk := byBucket[end[b]-l : end[b]]
		span := l * l
		hstar, tries, err := ph(b, bk, span)
		perfectTries += tries
		if err != nil {
			return fmt.Errorf("core: bucket %d: %w", b, err)
		}
		dict.phA[b], dict.phB[b] = hstar.A, hstar.B
		off := offsets[b]
		for j := 0; j < span; j++ {
			tab.Set(phRow, off+j, cellprobe.Cell{Lo: hstar.A, Hi: hstar.B})
		}
		for _, x := range bk {
			tab.Set(dataRow, off+int(hstar.Eval(x)), cellprobe.Cell{Lo: x, Hi: occupiedTag})
		}
	}

	dict.report.Rho = rho
	dict.report.Rows = rows
	dict.report.Cells = tab.Size()
	dict.report.PerfectTries = perfectTries
	return nil
}

// zReplicaCol returns the column of the k-th replica of z[idx].
func (dict *Dict) zReplicaCol(idx, k int) int {
	if dict.strided {
		return idx + k*dict.r
	}
	return idx*dict.blkZ + k
}

// groupReplicaCol returns the column of the k-th replica of group grp.
func (dict *Dict) groupReplicaCol(grp, k int) int {
	if dict.strided {
		return grp + k*dict.m
	}
	return grp*dict.blkG + k
}

// hEval is the builder-side h(x) = (f(x) + z_{g(x)}) mod s.
func (dict *Dict) hEval(x uint64) uint64 {
	return (dict.f.Eval(x) + dict.z[dict.g.Eval(x)]) % uint64(dict.s)
}

func (dict *Dict) zRow() int    { return 2 * dict.d }
func (dict *Dict) gbasRow() int { return 2*dict.d + 1 }
func (dict *Dict) histRow() int { return 2*dict.d + 2 }
func (dict *Dict) phRow() int   { return 2*dict.d + 2 + dict.rho }
func (dict *Dict) dataRow() int { return 2*dict.d + 3 + dict.rho }

// N returns the number of stored keys.
func (dict *Dict) N() int { return dict.n }

// Keys returns the stored key set, read from the data row (bucket order).
func (dict *Dict) Keys() []uint64 {
	keys := make([]uint64, 0, dict.n)
	row := dict.dataRow()
	for j := 0; j < dict.s; j++ {
		if c := dict.tab.At(row, j); c.Hi == occupiedTag {
			keys = append(keys, c.Lo)
		}
	}
	return keys
}

// Table exposes the underlying cell-probe table for contention recording.
func (dict *Dict) Table() *cellprobe.Table { return dict.tab }

// Report returns the build report.
func (dict *Dict) Report() BuildReport { return dict.report }

// MaxProbes returns the worst-case number of cell probes per query:
// 2d coefficient probes, one z probe, one GBAS probe, ρ histogram probes,
// one perfect-hash probe and one data probe.
func (dict *Dict) MaxProbes() int { return 2*dict.d + dict.rho + 4 }

// Name identifies the structure in experiment reports.
func (dict *Dict) Name() string { return "lcds" }
