package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
	"repro/internal/hash"
	"repro/internal/modarith"
	"repro/internal/rng"
)

// The query algorithm is written as a resumable per-query state machine so
// the batch path can interleave many queries: each stage reads its cells,
// computes the next probe targets, and issues prefetches for those on the
// dense perfect-hash and data rows. The replicated rows are block rows whose
// 2d + r + (1+ρ)m values (52 KiB at n=32768, 500 KiB at n=262144) stay in
// L2 or L3 under a steady query stream, so they are not prefetched. Stage
// names follow the §2.3 phases.
const (
	wfIdle  int8 = iota // slot holds no query
	wfCoef              // next: read the 2d coefficient cells
	wfZ                 // next: read z_{g(x)}
	wfGroup             // next: read GBAS + the ρ histogram cells
	wfPH                // next: read the perfect-hash cell
	wfData              // next: read the data cell
)

// Wavefront width G of the batch query path: the default, and the cap above
// which wider rings stop paying (the load queue is finite and slot state
// stops fitting in L1).
const (
	defaultBatchGroup = 8
	maxBatchGroup     = 64
)

// wfSlot is one in-flight query of a wavefront: its pre-drawn replica
// choices, the state its completed stages computed, and the cell column the
// next stage will probe. All randomness is drawn at admission — in the same
// within-query order the sequential path consumes — so interleaving queries
// never changes which cells any individual query probes.
type wfSlot struct {
	x     uint64                // the queried key
	fsum  uint64                // f(x), computed from the coefficient cells
	uSpan uint64                // raw 64-bit draw for the perfect-hash replica choice
	idx   int                   // batch index: out[idx] receives the answer
	stage int8                  // next stage to evaluate
	kz    int                   // replica choice within the z block
	kb    int                   // replica choice within the GBAS block
	gx    int                   // z index g(x) (set by wfCoef)
	hp    int                   // group index h′(x)
	pos   int                   // position of bucket h(x) within its group
	col   int                   // column the next single-cell stage probes
	off   int                   // bucket span start (set by wfGroup)
	span  int                   // bucket span width ℓ² (set by wfGroup)
	log   *[]cellprobe.StepCell // capture destination, nil when off
}

// QueryScratch holds the per-query working memory of Contains: the f and g
// coefficient buffers, the group-histogram words, and the wavefront arena of
// the batch path. A zero QueryScratch is ready to use; buffers grow on first
// use and are reused afterwards, so a caller that keeps one scratch per
// goroutine (the facade pools them) pays no heap allocation per query. A
// scratch must not be shared by concurrent queries.
type QueryScratch struct {
	fc, gc []uint64
	words  []uint64
	vec    bitvec.Vector

	// Wavefront arena: wf[i] is one in-flight query; wfCoef carries each
	// slot's 2d coefficient replica columns, wfHist each slot's ρ histogram
	// replica choices (overwritten with resolved columns at stage wfZ).
	wf     []wfSlot
	wfCoef []int32
	wfHist []int32
	src    sliceSource // ContainsBatch's feed, embedded so no interface allocation

	// capture arms capture of the next query (StartCapture), and sampler
	// (last, below) picks the queries a batch captures (SetSampler): a
	// captured query appends each probe's (step, flat cell) pair to probes.
	// Uncaptured queries pay one predictable untaken branch per probe.
	capture bool
	probes  []cellprobe.StepCell

	// batchCap arms per-query capture across a whole batch (StartBatch-
	// Capture): batchLog[i] records the probes of the query at batch index
	// i. Each log lives in its own heap box so the pointer a slot holds
	// stays valid while batchLog itself grows with later admissions. A
	// test/measurement mode — it allocates.
	batchCap bool
	batchLog []*[]cellprobe.StepCell

	// tally, when armed (SetTally), counts every probe of the queries this
	// scratch answers per step, shifted by nest (Nest), as captures are.
	tally []uint64

	// rs is the scratch's own random stream (Source): a query or batch
	// answered with this scratch draws its replica choices from it after
	// one draw from a shared rng.Sharded.
	rs rng.Stream

	// view is the resolved cell view of the call in progress (openView),
	// empty between calls. spill is the view's tally when none is armed:
	// counted into, never read by the query path.
	view  cellView
	spill []uint64

	sampler Sampler
	nest    cellprobe.StepCell
}

// cellView is the resolved cell view a call reads its cells through when
// the table hands its rows out (cellprobe.Table.CellView): a probe of cell
// (row, col) at step is tally[step]++ plus a load of rows[row][idx], where
// idx is the index of the value the column replicates — 0 on a coefficient
// row, g(x) on the z row, h′(x) on the GBAS and histogram rows, the column
// itself on the dense perfect-hash and data rows. An empty view (nil rows)
// sends every probe through Table.ProbeTo into tally (nil when none is
// armed) and every prefetch through Table.PrefetchCell.
type cellView struct {
	rows  [][]cellprobe.Cell
	tally []uint64
}

// openView resets the scratch's view for one ContainsScratch or
// ContainsWavefront call on dict. It takes the table's rows when the table
// hands them out and the armed tally, if any, has a slot for every step
// past the nest (ProbeTo clamps later steps into the last slot; the view
// does not). The call clears the view again before it returns, so a pooled
// scratch never keeps a retired table reachable.
func (sc *QueryScratch) openView(dict *Dict) {
	var tally []uint64
	if sc.tally != nil {
		tally = sc.tally[sc.nest.Step:]
	}
	sc.view = cellView{tally: tally}
	steps := dict.MaxProbes()
	if tally != nil && len(tally) < steps {
		return
	}
	rows := dict.tab.CellView()
	if rows == nil {
		return
	}
	if tally == nil {
		if cap(sc.spill) < steps {
			sc.spill = make([]uint64, steps)
		}
		tally = sc.spill[:steps]
	}
	sc.view = cellView{rows: rows, tally: tally}
}

// probe reads cell (row, col) of tab at step: through the view at the
// replicated value's index idx when the call holds one, otherwise as a
// ProbeTo into the armed tally.
func (sc *QueryScratch) probe(tab *cellprobe.Table, step, row, col, idx int) cellprobe.Cell {
	if rows := sc.view.rows; rows != nil {
		sc.view.tally[step]++
		return rows[row][idx]
	}
	return tab.ProbeTo(step, row, col, sc.view.tally)
}

// prefetch hints cell (row, col) of one of tab's dense rows, through the
// view when the call holds one.
func (sc *QueryScratch) prefetch(tab *cellprobe.Table, row, col int) {
	if rows := sc.view.rows; rows != nil {
		cellprobe.PrefetchRowCell(rows[row], col)
		return
	}
	tab.PrefetchCell(row, col)
}

// Source localises r for one query or batch answered with this scratch:
// a shared rng.Sharded costs one draw here and the span's replica choices
// come from the scratch's own stream; any other source (an explicit
// *rng.RNG, or a stream already localised by an outer call) is returned
// unchanged. See rng.Local. Like the scratch, the result must stay on the
// calling goroutine.
func (sc *QueryScratch) Source(r rng.Source) rng.Source { return rng.Local(r, &sc.rs) }

// SetTally arms per-step probe tallying for the queries answered with this
// scratch: each probe is counted at tally[min(step, len(tally)−1)]
// (cellprobe.Table.ProbeTo), and the caller hands the counts on itself —
// the read feed to telemetry. nil disarms it.
func (sc *QueryScratch) SetTally(tally []uint64) { sc.tally = tally }

// Tally returns the armed per-step tally, or nil.
func (sc *QueryScratch) Tally() []uint64 { return sc.tally }

// Nest makes the scratch count and capture the next queries' probes in a
// composite's coordinates (internal/shard): step t as steps+t, cell c as
// cells+c. Nest(0, 0) restores local coordinates.
func (sc *QueryScratch) Nest(steps, cells int) {
	sc.nest = cellprobe.StepCell{Step: int32(steps), Cell: int32(cells)}
}

// StartCapture arms capture of the next query answered with this scratch:
// its probes are appended to the capture log as (step, flat cell) pairs,
// in probe order — for a traced or a cell-sampled query.
func (sc *QueryScratch) StartCapture() { sc.capture = true }

// CaptureProbe logs (step, cell) while capture is armed: a probe a
// composite makes for the next query itself (internal/shard's routing).
func (sc *QueryScratch) CaptureProbe(step, cell int) {
	if sc.capture {
		sc.probes = append(sc.probes, cellprobe.StepCell{Step: int32(step), Cell: int32(cell)})
	}
}

// Sampler picks the queries a batch captures, asked once per query as the
// wavefront admits it.
type Sampler interface{ ShouldFold() bool }

// SetSampler makes batches answered with this scratch capture the queries
// s picks, gathering the whole call in the capture log; nil disarms it.
func (sc *QueryScratch) SetSampler(s Sampler) { sc.sampler = s }

// ReserveCapture makes room in the capture log for n more pairs, so that a
// call capturing at most n probes allocates nothing.
func (sc *QueryScratch) ReserveCapture(n int) { sc.probes = slices.Grow(sc.probes, n) }

// StopCapture disarms capture, empties the log and returns a copy of its
// flat cells in probe order: for one query of this dictionary, cells[t] is
// the cell probed at step t.
func (sc *QueryScratch) StopCapture() []int32 {
	probes := sc.StopCaptureProbes()
	cells := make([]int32, len(probes))
	for i, p := range probes {
		cells[i] = p.Cell
	}
	return cells
}

// StopCaptureProbes is StopCapture returning the logged (step, cell) pairs
// themselves, aliasing scratch memory: valid until the next query is
// captured.
func (sc *QueryScratch) StopCaptureProbes() []cellprobe.StepCell {
	sc.capture = false
	log := sc.probes
	sc.probes = sc.probes[:0]
	return log
}

// StartBatchCapture arms per-query capture for the next batch answered with
// this scratch: every admitted query records its probes under its batch
// index. The equivalence battery uses it to check that the wavefront
// probes exactly the cells the sequential path would; unlike the
// steady-state batch path it allocates (one log per query).
func (sc *QueryScratch) StartBatchCapture() {
	sc.batchCap = true
	sc.batchLog = sc.batchLog[:0]
}

// StopBatchCapture disarms batch capture and returns the per-query logs,
// indexed by batch position (nil for queries that never reached this
// dictionary — e.g. resolved by a dynamic dictionary's buffer). The slices
// alias scratch memory: valid until the next StartBatchCapture.
func (sc *QueryScratch) StopBatchCapture() [][]cellprobe.StepCell {
	sc.batchCap = false
	out := make([][]cellprobe.StepCell, len(sc.batchLog))
	for i, box := range sc.batchLog {
		if box != nil {
			out[i] = *box
		}
	}
	return out
}

// logProbe appends (step, cell), nested, to a captured query's log.
func (sc *QueryScratch) logProbe(log *[]cellprobe.StepCell, step, cell int) {
	*log = append(*log, cellprobe.StepCell{Step: int32(step) + sc.nest.Step, Cell: int32(cell) + sc.nest.Cell})
}

// ensure sizes the buffers for a dictionary with degree d and rho histogram
// rows.
func (sc *QueryScratch) ensure(d, rho int) {
	if cap(sc.fc) < d {
		sc.fc = make([]uint64, d)
		sc.gc = make([]uint64, d)
	}
	sc.fc, sc.gc = sc.fc[:d], sc.gc[:d]
	if cap(sc.words) < 2*rho {
		sc.words = make([]uint64, 2*rho)
	}
	sc.words = sc.words[:2*rho]
}

// ensureWave additionally sizes the wavefront arena for g in-flight queries.
func (sc *QueryScratch) ensureWave(d, rho, g int) {
	sc.ensure(d, rho)
	if cap(sc.wf) < g {
		sc.wf = make([]wfSlot, g)
	}
	sc.wf = sc.wf[:g]
	if n := g * 2 * d; cap(sc.wfCoef) < n {
		sc.wfCoef = make([]int32, n)
	}
	sc.wfCoef = sc.wfCoef[:g*2*d]
	if n := g * rho; cap(sc.wfHist) < n {
		sc.wfHist = make([]int32, n)
	}
	sc.wfHist = sc.wfHist[:g*rho]
}

// spanIndex reduces one raw 64-bit draw to a uniform index in [0, span) by
// fixed-point multiply (the first — and almost always only — iteration of
// the nearly-divisionless reduction rng.Intn uses). Unlike Intn it consumes
// exactly one draw regardless of span, which is what lets the wavefront
// pre-draw a query's whole random budget at admission, before the bucket
// span is known: Intn's rare rejection loop would consume a data-dependent
// number of draws and desynchronize the stream. The price is a bias of at
// most span/2^64 ≈ 10^-15 per draw — invisible to every statistical
// contention bound (the exact analyzer's UniformSpan model is unchanged).
func spanIndex(u uint64, span int) int {
	hi, _ := bits.Mul64(u, uint64(span))
	return int(hi)
}

// batchGroupSize resolves the configured wavefront width.
func (dict *Dict) batchGroupSize() int {
	g := dict.batchGroup
	if g <= 0 {
		g = defaultBatchGroup
	}
	if g > maxBatchGroup {
		g = maxBatchGroup
	}
	return g
}

// BatchGroup returns the wavefront width G the batch query path runs at.
func (dict *Dict) BatchGroup() int { return dict.batchGroupSize() }

// SetBatchGroup overrides the wavefront width after construction (0 restores
// the default, values above the cap are clamped) — the hook deserialized
// dictionaries use, since the wire format carries no query-side tuning. Not
// safe to call concurrently with queries.
func (dict *Dict) SetBatchGroup(g int) { dict.batchGroup = g }

// Contains answers the membership query for x using the paper's §2.3
// four-phase algorithm. Every value it uses is read from table cells via
// recorded probes; the random source chooses which replica each probe
// reads. Pass an *rng.RNG for reproducible sequential queries or a shared
// rng.Sharded for concurrent ones (each query then takes one draw from it
// and its replica choices from the scratch's own stream, see
// QueryScratch.Source).
//
// The returned error is non-nil only when the table itself is corrupt
// (failure injection, bit flips): every error path is a consistency check
// on cell contents. On a well-formed table the answer is exact and the
// error is always nil.
//
// Contains allocates a fresh QueryScratch per call; hot paths should use
// ContainsScratch with a reused scratch instead.
func (dict *Dict) Contains(x uint64, r rng.Source) (bool, error) {
	var sc QueryScratch
	return dict.ContainsScratch(x, r, &sc)
}

// ContainsScratch is Contains with caller-supplied working memory. After
// the scratch's first use it performs zero heap allocations, so a caller
// that reuses one scratch per goroutine gets an allocation-free read path.
//
// It runs the same state machine as the wavefront batch path, one query at
// a time with prefetching off: a query's replica draws, probe cells and
// step numbers are bit-identical between the two, which is what makes batch
// answers interchangeable with sequential ones probe for probe.
func (dict *Dict) ContainsScratch(x uint64, r rng.Source, sc *QueryScratch) (bool, error) {
	sc.ensureWave(dict.d, dict.rho, 1)
	sc.openView(dict)
	dict.wfAdmitKey(sc, 0, 0, x, sc.Source(r))
	for {
		done, ans, err := dict.wfStep(sc, 0, false)
		if done || err != nil {
			sc.wf[0].stage = wfIdle
			sc.view = cellView{}
			return ans, err
		}
	}
}

// wfAdmitKey loads the query for x into slot, drawing its entire random
// budget — 2d coefficient replicas, the z and GBAS replicas, ρ histogram
// replicas, one raw draw for the perfect-hash replica — in the sequential
// path's within-query order. Queries are admitted in batch order, so the
// shared source is consumed exactly as a sequential loop would consume it.
func (dict *Dict) wfAdmitKey(sc *QueryScratch, slot, idx int, x uint64, r rng.Source) {
	s := &sc.wf[slot]
	d := dict.d
	s.x, s.idx = x, idx
	base := slot * 2 * d
	coef := sc.wfCoef[base : base+2*d]           // f_i's replica at 2i, g_i's at 2i+1
	hist := sc.wfHist[slot*dict.rho:][:dict.rho] // one replica per histogram row
	if st, ok := r.(*rng.Stream); ok {
		// A localised stream (QueryScratch.Source): the same draws in the
		// same order, called on the concrete type so each one inlines.
		for i := range coef {
			coef[i] = int32(st.Intn(dict.s))
		}
		s.kz = st.Intn(dict.blkZ)
		s.kb = st.Intn(dict.blkG)
		for w := range hist {
			hist[w] = int32(st.Intn(dict.blkG))
		}
		s.uSpan = st.Uint64()
	} else {
		for i := range coef {
			coef[i] = int32(r.Intn(dict.s))
		}
		s.kz = r.Intn(dict.blkZ)
		s.kb = r.Intn(dict.blkG)
		for w := range hist {
			hist[w] = int32(r.Intn(dict.blkG))
		}
		s.uSpan = r.Uint64()
	}
	s.stage = wfCoef
	s.log = nil
	switch {
	case sc.batchCap:
		for len(sc.batchLog) <= idx {
			sc.batchLog = append(sc.batchLog, nil)
		}
		if sc.batchLog[idx] == nil {
			sc.batchLog[idx] = new([]cellprobe.StepCell)
		}
		*sc.batchLog[idx] = (*sc.batchLog[idx])[:0]
		s.log = sc.batchLog[idx]
	case sc.capture || (sc.sampler != nil && sc.sampler.ShouldFold()):
		sc.capture = false
		s.log = &sc.probes
	}
}

// wfStep evaluates one stage of the query in slot: it probes the stage's
// cells, advances the slot's state, and (with pf set) prefetches the next
// stage's cell when it lies on a dense row. It reports done=true when the
// query retired with answer ans. Probe steps and cells match the §2.3 sequential
// algorithm exactly.
func (dict *Dict) wfStep(sc *QueryScratch, slot int, pf bool) (done, ans bool, err error) {
	s := &sc.wf[slot]
	tab := dict.tab
	d := dict.d

	switch s.stage {
	case wfCoef:
		// Phase 1a: the 2d coefficient cells (steps 0..2d−1), then derive
		// f(x) and g(x) and the z replica column.
		base := slot * 2 * d
		for i := 0; i < d; i++ {
			cf, cg := int(sc.wfCoef[base+2*i]), int(sc.wfCoef[base+2*i+1])
			sc.fc[i] = sc.probe(tab, i, i, cf, 0).Lo
			sc.gc[i] = sc.probe(tab, d+i, d+i, cg, 0).Lo
			if s.log != nil {
				sc.logProbe(s.log, i, tab.Index(i, cf))
				sc.logProbe(s.log, d+i, tab.Index(d+i, cg))
			}
		}
		gv, fv := modarith.PolyEval2(sc.gc, sc.fc, s.x)
		s.gx = int(gv % uint64(dict.r))
		s.fsum = fv % uint64(dict.s)
		s.col = dict.zReplicaCol(s.gx, s.kz)
		s.stage = wfZ

	case wfZ:
		// Phase 1b: z_{g(x)} (step 2d) completes h(x); the group and the
		// histogram columns become known.
		zv := sc.probe(tab, 2*d, dict.zRow(), s.col, s.gx).Lo
		if s.log != nil {
			sc.logProbe(s.log, 2*d, tab.Index(dict.zRow(), s.col))
		}
		if zv >= uint64(dict.s) {
			return false, false, fmt.Errorf("core: corrupt table: z value %d outside [0, %d)", zv, dict.s)
		}
		h := int((s.fsum + zv) % uint64(dict.s))
		s.hp = h % dict.m
		s.pos = h / dict.m
		s.col = dict.groupReplicaCol(s.hp, s.kb)
		hbase := slot * dict.rho
		for w := 0; w < dict.rho; w++ {
			sc.wfHist[hbase+w] = int32(dict.groupReplicaCol(s.hp, int(sc.wfHist[hbase+w])))
		}
		s.stage = wfGroup

	case wfGroup:
		// Phase 2+3: group base address (step 2d+1), the ρ histogram cells
		// (steps 2d+2..2d+1+ρ), and the prefix-sum decode to the bucket's
		// ℓ² cell span.
		step := 2*d + 1
		gbas := sc.probe(tab, step, dict.gbasRow(), s.col, s.hp).Lo
		if s.log != nil {
			sc.logProbe(s.log, step, tab.Index(dict.gbasRow(), s.col))
		}
		if gbas > uint64(dict.s) {
			return false, false, fmt.Errorf("core: corrupt table: group base address %d outside [0, %d]", gbas, dict.s)
		}
		hbase := slot * dict.rho
		for w := 0; w < dict.rho; w++ {
			step++
			ch := int(sc.wfHist[hbase+w])
			c := sc.probe(tab, step, dict.histRow()+w, ch, s.hp)
			if s.log != nil {
				sc.logProbe(s.log, step, tab.Index(dict.histRow()+w, ch))
			}
			sc.words[2*w], sc.words[2*w+1] = c.Lo, c.Hi
		}
		sc.vec.Reset(sc.words, dict.rho*128)
		sumSq, l, herr := bitvec.HistogramPrefixSum(&sc.vec, s.pos+1)
		if herr != nil {
			return false, false, fmt.Errorf("core: corrupt table: histogram of group %d: %w", s.hp, herr)
		}
		if l == 0 {
			return true, false, nil // empty bucket: the key cannot be present
		}
		off := int(gbas) + sumSq
		span := l * l
		if off+span > dict.s {
			return false, false, fmt.Errorf("core: corrupt table: bucket span [%d, %d) exceeds s = %d", off, off+span, dict.s)
		}
		s.off, s.span = off, span
		s.col = off + spanIndex(s.uSpan, span)
		if pf {
			sc.prefetch(tab, dict.phRow(), s.col)
		}
		s.stage = wfPH

	case wfPH:
		// Phase 4a: the perfect hash from a random cell of the span
		// (step 2d+2+ρ).
		step := 2*d + 2 + dict.rho
		phc := sc.probe(tab, step, dict.phRow(), s.col, s.col)
		if s.log != nil {
			sc.logProbe(s.log, step, tab.Index(dict.phRow(), s.col))
		}
		hstar := hash.Pairwise{A: phc.Lo, B: phc.Hi, M: uint64(s.span)}
		s.col = s.off + int(hstar.Eval(s.x))
		if pf {
			sc.prefetch(tab, dict.dataRow(), s.col)
		}
		s.stage = wfData

	case wfData:
		// Phase 4b: the data cell (step 2d+3+ρ) answers the query.
		step := 2*d + 3 + dict.rho
		dc := sc.probe(tab, step, dict.dataRow(), s.col, s.col)
		if s.log != nil {
			sc.logProbe(s.log, step, tab.Index(dict.dataRow(), s.col))
		}
		return true, dc.Hi == occupiedTag && dc.Lo == s.x, nil
	}
	return false, false, nil
}

// BatchSource feeds queries to ContainsWavefront in batch order: NextQuery
// returns the next pending query's output index and key, or ok=false when
// the batch is exhausted. A source may resolve some queries itself (the
// dynamic dictionary's buffer pre-check) and hand the wavefront only the
// rest; because the wavefront admits queries — and therefore draws their
// randomness — strictly in the order the source yields them, the shared
// random stream is consumed exactly as a sequential loop over the batch
// would consume it.
type BatchSource interface {
	NextQuery() (idx int, key uint64, ok bool)
}

// sliceSource feeds a plain key slice, embedded in QueryScratch so the
// interface conversion in ContainsBatch costs no allocation.
type sliceSource struct {
	keys []uint64
	pos  int
}

func (s *sliceSource) NextQuery() (int, uint64, bool) {
	if s.pos >= len(s.keys) {
		return 0, 0, false
	}
	i := s.pos
	s.pos++
	return i, s.keys[i], true
}

// ContainsWavefront answers every query src yields into out[idx] using a
// wavefront of up to G = BatchGroup in-flight queries: per round, each live
// query evaluates one stage and prefetches its next dense-row cell, so the
// dependent cache misses of G probe chains overlap instead of serializing. Retired slots are refilled
// from src until it is exhausted.
//
// Answers, per-query probe cells and step numbers are bit-identical to
// calling ContainsScratch per key with the same source — only the order of
// probes across the batch changes. out must be long enough for every index
// src yields. It stops at the first corrupt-table error; queries in flight
// at that point are abandoned. A shared rng.Sharded r is localised once for
// the whole batch (QueryScratch.Source); a source that draws from r itself
// should be handed the same localised stream first.
func (dict *Dict) ContainsWavefront(src BatchSource, out []bool, r rng.Source, sc *QueryScratch) error {
	if sc == nil {
		sc = new(QueryScratch)
	}
	r = sc.Source(r)
	g := dict.batchGroupSize()
	sc.ensureWave(dict.d, dict.rho, g)
	sc.openView(dict)
	for i := 0; i < g; i++ {
		sc.wf[i].stage = wfIdle
	}
	live := 0
	for i := 0; i < g; i++ {
		idx, x, ok := src.NextQuery()
		if !ok {
			break
		}
		dict.wfAdmitKey(sc, i, idx, x, r)
		live++
	}
	for live > 0 {
		for i := 0; i < g; i++ {
			if sc.wf[i].stage == wfIdle {
				continue
			}
			done, ans, err := dict.wfStep(sc, i, true)
			if err != nil {
				sc.view = cellView{}
				return err
			}
			if !done {
				continue
			}
			out[sc.wf[i].idx] = ans
			if idx, x, ok := src.NextQuery(); ok {
				dict.wfAdmitKey(sc, i, idx, x, r)
			} else {
				sc.wf[i].stage = wfIdle
				live--
			}
		}
	}
	sc.view = cellView{}
	return nil
}

// ContainsBatch answers membership for every keys[i] into out[i] through
// the wavefront scheduler (see ContainsWavefront), reusing one scratch
// across the whole batch. out must be at least as long as keys. It stops at
// the first corrupt-table error.
func (dict *Dict) ContainsBatch(keys []uint64, out []bool, r rng.Source, sc *QueryScratch) error {
	if len(out) < len(keys) {
		return fmt.Errorf("core: ContainsBatch output length %d < %d keys", len(out), len(keys))
	}
	if sc == nil {
		sc = new(QueryScratch)
	}
	sc.src = sliceSource{keys: keys}
	err := dict.ContainsWavefront(&sc.src, out, r, sc)
	sc.src = sliceSource{}
	return err
}

// ProbeSpec returns the exact per-step probe distribution P_t(x, ·) of the
// query algorithm for input x on this table — the row of the paper's probe
// matrices (§1.1). It is computed from builder-side knowledge and is exact
// because every query step probes a uniformly random replica of a range
// determined by x and the table.
func (dict *Dict) ProbeSpec(x uint64) cellprobe.ProbeSpec {
	if dict.strided {
		panic("core: ProbeSpec requires the block replica layout; strided dictionaries support Monte-Carlo contention measurement only")
	}
	d, s := dict.d, dict.s
	tab := dict.tab
	spec := make(cellprobe.ProbeSpec, 0, dict.MaxProbes())

	// Coefficient probes: uniform over each coefficient row.
	for i := 0; i < 2*d; i++ {
		spec = append(spec, cellprobe.UniformSpan(tab.Index(i, 0), s, 1))
	}
	// z probe: uniform over the block of g(x).
	gx := int(dict.g.Eval(x))
	spec = append(spec, cellprobe.UniformSpan(tab.Index(dict.zRow(), gx*dict.blkZ), dict.blkZ, 1))
	// GBAS and histogram probes: uniform over the group block.
	h := int(dict.hEval(x))
	hp := h % dict.m
	spec = append(spec, cellprobe.UniformSpan(tab.Index(dict.gbasRow(), hp*dict.blkG), dict.blkG, 1))
	for w := 0; w < dict.rho; w++ {
		spec = append(spec, cellprobe.UniformSpan(tab.Index(dict.histRow()+w, hp*dict.blkG), dict.blkG, 1))
	}
	// Perfect-hash and data probes: only for non-empty buckets.
	l := dict.hLoads[h]
	if l == 0 {
		spec = append(spec, cellprobe.StepSpec{}, cellprobe.StepSpec{})
		return spec
	}
	off := dict.offsets[h]
	span := l * l
	spec = append(spec, cellprobe.UniformSpan(tab.Index(dict.phRow(), off), span, 1))
	hstar := hash.Pairwise{A: dict.phA[h], B: dict.phB[h], M: uint64(span)}
	spec = append(spec, cellprobe.PointSpan(tab.Index(dict.dataRow(), off+int(hstar.Eval(x))), 1))
	return spec
}
