// Package cellprobe implements the paper's model of computation (§1.1):
// a table of s cells of b bits each, probed by a randomized adaptive query
// algorithm, with per-cell per-step contention accounting.
//
// Three accounting mechanisms coexist:
//
//   - a Recorder counts actual probes during Monte-Carlo query execution,
//     yielding the empirical contention Φ̂_t(j) = probes_t(j) / queries;
//   - a ProbeSpec describes a query's exact per-step probe distribution as
//     a set of uniform spans, from which package contention computes the
//     exact Φ_t = q·P_t of Definition 1 without sampling;
//   - a per-call tally (ProbeTo) counts a live query's probes by step in
//     the caller's own memory, and a capture lists a query's probes as
//     StepCell pairs; the caller hands both to the production telemetry
//     (internal/telemetry) once per call, on striped counters instead of
//     the Recorder's sequential dense matrices.
//
// Cells are 128 bits (b = Θ(log N) for the 2^61-key universe; wide enough
// that one cell holds a full pairwise hash function, preserving the paper's
// one-probe-per-row table layout).
//
// Rows are backed densely (one Go value per cell) or as block rows
// (SetBlockRow, SetResidueRow): a row whose content repeats — the
// replicated rows of the paper's construction — stores each distinct value
// once while still *accounting* for the full s cells of model space. The
// backing changes nothing observable through At, Probe or a Recorder.
//
// The dense rows share one backing allocation, the row arena, made at the
// table's first Set and sized by the rows that are not block rows at that
// point: block rows never materialize, and HeapCells counts exactly what
// was allocated. On Linux the arena's 2 MiB-aligned interior is advised
// for transparent huge pages before its first write, so a probe of a large
// table costs a cache miss rather than a cache miss plus a page walk; a
// range declared never written (ColdTail) is kept off huge pages so that it
// costs no memory.
//
// A caller that answers many probes may read each row's backing directly
// through CellView, the resolved cell view, but only while nothing observes
// individual probes (no Recorder, trace or ForwardTo link). A view is
// not a probe bypass: every probe is still tallied at its step, exactly as
// ProbeTo would tally it.
package cellprobe

import (
	"fmt"
	"unsafe"

	"repro/internal/cpu"
)

// Cell is one b-bit memory cell, b = 128.
type Cell struct {
	Lo, Hi uint64
}

// Table is a rows × width grid of cells addressed either two-dimensionally
// (row, col) following the paper's §2.2 layout, or by flat index
// row*width + col. The zero column count is invalid; use New.
type Table struct {
	rows     int
	width    int
	arena    []Cell   // backing of the dense rows, allocated on the first Set
	view     [][]Cell // view[r] is row r's backing: its share of arena, or its block values
	blk      []int    // blk[r] is denseRow, residueRow, or the block width of a block row
	unbacked int      // rows whose view is still nil (dense rows before the arena)
	rec      *Recorder
	trace    func(step, cell int)
	fwd      *forward
}

// Row kinds stored in Table.blk; a positive entry is a block row's width.
const (
	denseRow   = 0  // one value per column
	residueRow = -1 // column col holds values[col mod len(values)]
)

// forward re-records this table's probes on a parent table's accounting at
// translated coordinates — how a composite structure (internal/shard) makes
// its sub-tables' probes visible to a recorder or trace attached to the
// composite.
type forward struct {
	parent  *Table
	cellOff int
	stepOff int
}

func (f *forward) record(step, cell int) {
	step, cell = step+f.stepOff, cell+f.cellOff
	if f.parent.rec != nil {
		f.parent.rec.record(step, cell)
	}
	if f.parent.trace != nil {
		f.parent.trace(step, cell)
	}
	if f.parent.fwd != nil {
		f.parent.fwd.record(step, cell)
	}
}

// New allocates a table of the given shape with all cells zero. Dense row
// storage is allocated on the first Set, for the rows that are not block
// rows by then, so block rows never materialize: install them (SetBlockRow,
// SetResidueRow) before writing dense ones.
func New(rows, width int) *Table {
	if rows < 1 || width < 1 {
		panic(fmt.Sprintf("cellprobe: invalid table shape %d×%d", rows, width))
	}
	return &Table{
		rows:     rows,
		width:    width,
		view:     make([][]Cell, rows),
		blk:      make([]int, rows),
		unbacked: rows,
	}
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Width returns the number of cells per row (the paper's s).
func (t *Table) Width() int { return t.width }

// Size returns the total number of cells — the model's space usage, which
// counts replicated cells at full size regardless of backing.
func (t *Table) Size() int { return t.rows * t.width }

// HeapCells returns the number of Cell values actually allocated — the Go
// memory footprint (the row arena plus the values of each block row).
func (t *Table) HeapCells() int {
	total := len(t.arena)
	for r, v := range t.view {
		if t.blk[r] != denseRow {
			total += len(v)
		}
	}
	return total
}

// Index converts (row, col) to a flat cell index.
func (t *Table) Index(row, col int) int {
	if row < 0 || row >= t.rows || col < 0 || col >= t.width {
		panic(fmt.Sprintf("cellprobe: index (%d,%d) out of %d×%d table", row, col, t.rows, t.width))
	}
	return row*t.width + col
}

// read returns the cell value honoring the row's backing.
func (t *Table) read(row, col int) Cell {
	v := t.view[row]
	switch b := t.blk[row]; {
	case b == residueRow:
		return v[col%len(v)]
	case b > 0 && len(v) == 1:
		return v[0] // a constant row: skip the division
	case b > 0:
		return v[min(col/b, len(v)-1)]
	case v != nil:
		return v[col]
	}
	return Cell{}
}

// Set writes a cell during construction. Construction writes are not probes
// and are never recorded. Writing to a block row panics — replace its
// backing with SetBlockRow or SetResidueRow instead.
func (t *Table) Set(row, col int, c Cell) {
	t.Index(row, col) // bounds check
	if t.blk[row] != denseRow {
		panic(fmt.Sprintf("cellprobe: Set on block row %d", row))
	}
	if t.arena == nil {
		t.carve()
	}
	t.view[row][col] = c
}

// carve allocates the row arena for every row not a block row at this point
// and hands each its share.
func (t *Table) carve() {
	n := 0
	for r := 0; r < t.rows; r++ {
		if t.blk[r] == denseRow {
			n++
		}
	}
	t.arena = make([]Cell, n*t.width)
	adviseHuge(t.arena)
	for r, lo := 0, 0; r < t.rows; r++ {
		if t.blk[r] == denseRow {
			t.view[r] = t.arena[lo : lo+t.width : lo+t.width]
			lo += t.width
		}
	}
	t.unbacked = 0
}

// ColdTail declares that cells [from, Width) of the dense row will never be
// written or probed. Called before the first Set, it carves the row arena
// (see New) and keeps that range off huge pages, so the kernel never faults
// it in: on a huge-page-backed arena an untouched range is otherwise mapped
// whole along with the touched cells that share its huge pages. Block rows,
// and ranges too small to span a page, are left as they are.
func (t *Table) ColdTail(row, from int) {
	if t.arena == nil {
		t.carve()
	}
	if d := t.view[row]; t.blk[row] == denseRow && from >= 0 && from < len(d) {
		adviseCold(t.arena, d[from:])
	}
}

// SetBlockRow makes row a block row whose content is values[col/blk], with
// the last value covering every column past len(values)·blk — however many
// there are (z's ⌊s/r⌋ blocks leave s mod r such columns, which may exceed
// a block). It requires blk ≥ 1 and at least one value and replaces any
// dense data previously written to the row.
func (t *Table) SetBlockRow(row int, values []Cell, blk int) {
	if blk < 1 {
		panic("cellprobe: SetBlockRow needs blk ≥ 1")
	}
	t.setBacking(row, values, blk)
}

// SetResidueRow makes row a block row whose content is
// values[col mod len(values)] — the paper's literal layout, copy k of
// value i at column i + k·len(values). It requires 1 ≤ len(values) ≤ width
// and replaces any dense data previously written to the row.
func (t *Table) SetResidueRow(row int, values []Cell) {
	if len(values) > t.width {
		panic(fmt.Sprintf("cellprobe: %d residue values exceed width %d", len(values), t.width))
	}
	t.setBacking(row, values, residueRow)
}

func (t *Table) setBacking(row int, values []Cell, kind int) {
	if row < 0 || row >= t.rows {
		panic(fmt.Sprintf("cellprobe: row %d out of range", row))
	}
	if len(values) == 0 {
		panic("cellprobe: a block row needs values")
	}
	if t.view[row] == nil {
		t.unbacked--
	}
	t.view[row] = values
	t.blk[row] = kind
}

// At reads a cell without recording a probe. Only construction and test
// oracles may use it; query algorithms must use Probe.
func (t *Table) At(row, col int) Cell {
	t.Index(row, col) // bounds check
	return t.read(row, col)
}

// AtIndex reads by flat index without recording a probe.
func (t *Table) AtIndex(i int) Cell {
	if i < 0 || i >= t.Size() {
		panic(fmt.Sprintf("cellprobe: flat index %d out of range %d", i, t.Size()))
	}
	return t.read(i/t.width, i%t.width)
}

// PrefetchCell hints that cell (row, col) of a dense row will be probed
// soon by issuing a hardware prefetch for its cache line. Block rows are
// not prefetched: they hold one value per replica block, far fewer cells
// than the dense rows, and stay cached under a steady query stream. A
// prefetch is not a probe of the cell-probe model: it transfers no value
// and is never recorded — only the later Probe of the same cell is. Out-of-range or unwritten
// targets are silently ignored (a hint must never fault).
func (t *Table) PrefetchCell(row, col int) {
	if row < 0 || row >= t.rows || t.blk[row] != denseRow {
		return
	}
	PrefetchRowCell(t.view[row], col)
}

// CellView returns every row's backing — the resolved cell view — when no
// probe observer needs to see individual probes: no Recorder, trace or
// ForwardTo link is attached. Otherwise, or while a dense row has no
// storage yet (before the first Set), it returns nil and probes must go
// through ProbeTo. Row r of the view is indexed by what its backing stores:
// a dense row by column, a block row (SetBlockRow) by column/blk, a residue
// row (SetResidueRow) by column mod its length; so view[row][i] is the
// value ProbeTo(step, row, col) returns for every col that maps to i. A
// caller reading through the view must count each probe at its step
// exactly as ProbeTo counts it into a tally, and must not write through the
// view or keep it beyond the call that took it: dropping it is what lets a
// retired table be collected. The view itself is maintained as rows are
// installed, so taking it allocates nothing.
func (t *Table) CellView() [][]Cell {
	if t.unbacked > 0 || t.rec != nil || t.trace != nil || t.fwd != nil {
		return nil
	}
	return t.view
}

// PrefetchRowCell is PrefetchCell for a dense row taken from CellView: it
// hints row[col] and ignores an out-of-range col.
func PrefetchRowCell(row []Cell, col int) {
	if uint(col) < uint(len(row)) {
		cpu.Prefetch(unsafe.Pointer(&row[col]))
	}
}

// Probe performs a recorded query probe of cell (row, col) at the given
// 0-based step number and returns the cell contents.
func (t *Table) Probe(step, row, col int) Cell { return t.ProbeTo(step, row, col, nil) }

// ProbeTo is Probe with a caller-owned per-step tally: a non-nil tally
// counts the probe at tally[min(step, len(tally)−1)], and the caller hands
// the counts on in one go — how every dictionary feeds telemetry once per
// query or batch. The recorder, trace and ForwardTo accounting see every
// probe either way.
func (t *Table) ProbeTo(step, row, col int, tally []uint64) Cell {
	i := t.Index(row, col)
	if t.rec != nil {
		t.rec.record(step, i)
	}
	if t.trace != nil {
		t.trace(step, i)
	}
	if tally != nil {
		tally[min(step, len(tally)-1)]++
	}
	if t.fwd != nil {
		t.fwd.record(step, i)
	}
	return t.read(row, col)
}

// ProbeIndex performs a recorded query probe by flat cell index.
func (t *Table) ProbeIndex(step, i int) Cell {
	if i < 0 || i >= t.Size() {
		panic(fmt.Sprintf("cellprobe: flat index %d out of range %d", i, t.Size()))
	}
	if t.rec != nil {
		t.rec.record(step, i)
	}
	if t.trace != nil {
		t.trace(step, i)
	}
	if t.fwd != nil {
		t.fwd.record(step, i)
	}
	return t.read(i/t.width, i%t.width)
}

// ForwardTo mirrors every future Probe/ProbeIndex of t onto parent's
// accounting (recorder, trace, and any further forwarding) at flat cell
// index cellOffset + local index and step stepOffset + local step. The
// probe still reads t's own cells; only the accounting is forwarded.
// Pass a nil parent to remove the link. Like Attach/SetTrace, ForwardTo
// must not race with probes.
func (t *Table) ForwardTo(parent *Table, cellOffset, stepOffset int) {
	if parent == nil {
		t.fwd = nil
		return
	}
	t.fwd = &forward{parent: parent, cellOff: cellOffset, stepOff: stepOffset}
}

// SetTrace installs a per-probe callback invoked with (step, flat cell
// index) on every Probe/ProbeIndex. Pass nil to remove it. The memory
// simulator uses it to capture the exact probe sequence of a query, and
// sequential telemetry drives to capture each query's StepCell pairs.
func (t *Table) SetTrace(f func(step, cell int)) { t.trace = f }

// StepCell is one captured probe: the query step it was made at and the
// flat index of the cell it read — the unit a query capture records and
// telemetry folds into its per-cell counts.
type StepCell struct {
	Step, Cell int32
}

// Attach installs a recorder that accumulates probe counts until Detach.
// Attaching replaces any previous recorder.
func (t *Table) Attach(r *Recorder) { t.rec = r }

// Detach removes the recorder.
func (t *Table) Detach() { t.rec = nil }

// Recorder returns the attached recorder, or nil.
func (t *Table) Recorder() *Recorder { return t.rec }

// Recorder accumulates per-step, per-cell probe counts over a sequence of
// query executions. Divide by Queries to estimate contention.
type Recorder struct {
	cells   int
	Queries int        // number of queries executed (incremented by EndQuery)
	Total   []uint64   // Total[i] = probes to cell i summed over all steps
	PerStep [][]uint64 // PerStep[t][i], allocated lazily per step
	probes  uint64     // total probes across all queries
}

// NewRecorder creates a recorder for a table with the given cell count.
func NewRecorder(cells int) *Recorder {
	return &Recorder{cells: cells, Total: make([]uint64, cells)}
}

func (r *Recorder) record(step, cell int) {
	r.Total[cell]++
	r.probes++
	for len(r.PerStep) <= step {
		r.PerStep = append(r.PerStep, nil)
	}
	if r.PerStep[step] == nil {
		r.PerStep[step] = make([]uint64, r.cells)
	}
	r.PerStep[step][cell]++
}

// EndQuery marks the completion of one query execution.
func (r *Recorder) EndQuery() { r.Queries++ }

// Steps returns the number of distinct step indices observed.
func (r *Recorder) Steps() int { return len(r.PerStep) }

// ProbesPerQuery returns the mean number of probes per executed query.
func (r *Recorder) ProbesPerQuery() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.probes) / float64(r.Queries)
}

// MaxStepContention returns max over steps t and cells j of Φ̂_t(j) =
// PerStep[t][j] / Queries — the empirical analogue of the φ in
// Definition 2's (s,b,t,φ)-balanced scheme.
func (r *Recorder) MaxStepContention() float64 {
	if r.Queries == 0 {
		return 0
	}
	var best uint64
	for _, step := range r.PerStep {
		for _, c := range step {
			if c > best {
				best = c
			}
		}
	}
	return float64(best) / float64(r.Queries)
}

// MaxTotalContention returns max_j Φ̂(j) = Total[j] / Queries, the total
// contention of Definition 1.
func (r *Recorder) MaxTotalContention() float64 {
	if r.Queries == 0 {
		return 0
	}
	var best uint64
	for _, c := range r.Total {
		if c > best {
			best = c
		}
	}
	return float64(best) / float64(r.Queries)
}

// StepMass returns the total probe mass recorded at step t divided by
// Queries; ≤ 1, and exactly 1 for steps every query executes.
func (r *Recorder) StepMass(t int) float64 {
	if r.Queries == 0 || t >= len(r.PerStep) || r.PerStep[t] == nil {
		return 0
	}
	var sum uint64
	for _, c := range r.PerStep[t] {
		sum += c
	}
	return float64(sum) / float64(r.Queries)
}
