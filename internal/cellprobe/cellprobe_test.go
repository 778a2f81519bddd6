package cellprobe

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestTableShape(t *testing.T) {
	tab := New(3, 10)
	if tab.Rows() != 3 || tab.Width() != 10 || tab.Size() != 30 {
		t.Fatalf("shape = %d×%d size %d", tab.Rows(), tab.Width(), tab.Size())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][2]int{{0, 1}, {1, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", shape[0], shape[1])
				}
			}()
			New(shape[0], shape[1])
		}()
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	tab := New(4, 7)
	want := Cell{Lo: 0xdead, Hi: 0xbeef}
	tab.Set(2, 3, want)
	if got := tab.At(2, 3); got != want {
		t.Errorf("At = %+v, want %+v", got, want)
	}
	if got := tab.AtIndex(tab.Index(2, 3)); got != want {
		t.Errorf("AtIndex = %+v, want %+v", got, want)
	}
	if got := tab.At(2, 4); got != (Cell{}) {
		t.Errorf("untouched cell = %+v, want zero", got)
	}
}

func TestIndexPanicsOutOfRange(t *testing.T) {
	tab := New(2, 5)
	bad := [][2]int{{-1, 0}, {2, 0}, {0, -1}, {0, 5}}
	for _, rc := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%d,%d) did not panic", rc[0], rc[1])
				}
			}()
			tab.Index(rc[0], rc[1])
		}()
	}
}

func TestSetBlockRow(t *testing.T) {
	tab := New(3, 10)
	// Row 0: constant backing.
	tab.SetBlockRow(0, []Cell{{Lo: 7}}, 10)
	// Row 1: two blocks of 5.
	tab.SetBlockRow(1, []Cell{{Lo: 1}, {Lo: 2}}, 5)
	// Row 2: dense.
	tab.Set(2, 3, Cell{Lo: 99})

	for j := 0; j < 10; j++ {
		if got := tab.At(0, j); got.Lo != 7 {
			t.Fatalf("constant row col %d = %+v", j, got)
		}
		want := uint64(1)
		if j >= 5 {
			want = 2
		}
		if got := tab.At(1, j); got.Lo != want {
			t.Fatalf("block row col %d = %+v, want %d", j, got, want)
		}
	}
	if tab.At(2, 3).Lo != 99 || tab.At(2, 4) != (Cell{}) {
		t.Error("dense row broken")
	}
	// Probes read through the backing and are recorded at virtual indices.
	rec := NewRecorder(tab.Size())
	tab.Attach(rec)
	if got := tab.Probe(0, 1, 7); got.Lo != 2 {
		t.Errorf("Probe through block = %+v", got)
	}
	tab.Detach()
	if rec.Total[tab.Index(1, 7)] != 1 {
		t.Error("probe not recorded at virtual index")
	}
	// Heap accounting: 1 + 2 block values + 10 dense cells.
	if got := tab.HeapCells(); got != 13 {
		t.Errorf("HeapCells = %d, want 13", got)
	}
	// Size still reports the model's full space.
	if tab.Size() != 30 {
		t.Errorf("Size = %d", tab.Size())
	}
}

func TestSetBlockRowTrailingCap(t *testing.T) {
	// Width 10, blk 3, 4 values: cols 9 uses values[3].
	tab := New(1, 10)
	tab.SetBlockRow(0, []Cell{{Lo: 1}, {Lo: 2}, {Lo: 3}, {Lo: 4}}, 3)
	if got := tab.At(0, 9).Lo; got != 4 {
		t.Errorf("col 9 = %d, want 4", got)
	}
	// Width 10, blk 4, 2 values: col 8,9 map to index 2 -> capped at 1.
	tab2 := New(1, 10)
	tab2.SetBlockRow(0, []Cell{{Lo: 1}, {Lo: 2}}, 4)
	if got := tab2.At(0, 9).Lo; got != 2 {
		t.Errorf("capped col 9 = %d, want 2", got)
	}
	// Width 10, blk 2, 4 values: the two trailing columns fill a whole
	// block past the last value and still read values[3] (z with s = 10,
	// r = 4 has this shape).
	tab3 := New(1, 10)
	tab3.SetBlockRow(0, []Cell{{Lo: 1}, {Lo: 2}, {Lo: 3}, {Lo: 4}}, 2)
	for col := 6; col < 10; col++ {
		if got := tab3.At(0, col).Lo; got != 4 {
			t.Errorf("trailing col %d = %d, want 4", col, got)
		}
	}
}

func TestSetOnCompactRowPanics(t *testing.T) {
	for _, install := range []func(*Table){
		func(tab *Table) { tab.SetBlockRow(0, []Cell{{Lo: 1}}, 4) },
		func(tab *Table) { tab.SetResidueRow(0, []Cell{{Lo: 1}, {Lo: 2}}) },
	} {
		tab := New(1, 4)
		install(tab)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Set on a block row did not panic")
				}
			}()
			tab.Set(0, 0, Cell{})
		}()
	}
}

func TestSetResidueRow(t *testing.T) {
	tab := New(2, 10)
	tab.SetResidueRow(0, []Cell{{Lo: 1}, {Lo: 2}, {Lo: 3}})
	for j := 0; j < 10; j++ {
		if got := tab.At(0, j).Lo; got != uint64(j%3+1) {
			t.Fatalf("residue row col %d = %d, want %d", j, got, j%3+1)
		}
	}
	rec := NewRecorder(tab.Size())
	tab.Attach(rec)
	if got := tab.Probe(0, 0, 7); got.Lo != 2 {
		t.Errorf("Probe through residue row = %+v", got)
	}
	tab.Detach()
	if rec.Total[tab.Index(0, 7)] != 1 {
		t.Error("probe not recorded at virtual index")
	}
	for _, f := range []func(){
		func() { tab.SetResidueRow(1, nil) },
		func() { tab.SetResidueRow(1, make([]Cell, 11)) }, // more values than columns
		func() { tab.SetResidueRow(2, []Cell{{}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid SetResidueRow did not panic")
				}
			}()
			f()
		}()
	}
}

// TestCellView: the view is each row's backing — dense cells by column,
// block values by block, residue values by residue — and exists only once
// every row is backed and while nothing observes single probes.
func TestCellView(t *testing.T) {
	tab := New(4, 10)
	tab.SetBlockRow(0, []Cell{{Lo: 7}}, 10)
	tab.SetBlockRow(1, []Cell{{Lo: 1}, {Lo: 2}}, 5)
	tab.SetResidueRow(2, []Cell{{Lo: 4}, {Lo: 5}, {Lo: 6}})
	if tab.CellView() != nil {
		t.Fatal("view handed out before the dense row has storage")
	}
	tab.Set(3, 6, Cell{Lo: 99})
	view := tab.CellView()
	if view == nil {
		t.Fatal("no view on a fully backed, unobserved table")
	}
	index := []func(col int) int{
		func(int) int { return 0 },
		func(col int) int { return col / 5 },
		func(col int) int { return col % 3 },
		func(col int) int { return col },
	}
	for row := range view {
		for col := 0; col < 10; col++ {
			if got, want := view[row][index[row](col)], tab.At(row, col); got != want {
				t.Fatalf("view (%d, %d) = %+v, At = %+v", row, col, got, want)
			}
		}
	}
	if got := tab.HeapCells(); got != 1+2+3+10 {
		t.Errorf("HeapCells = %d, want 16", got)
	}
	parent := New(4, 10)
	for _, observe := range []struct {
		name    string
		on, off func()
	}{
		{"recorder", func() { tab.Attach(NewRecorder(tab.Size())) }, tab.Detach},
		{"trace", func() { tab.SetTrace(func(int, int) {}) }, func() { tab.SetTrace(nil) }},
		{"forward", func() { tab.ForwardTo(parent, 0, 0) }, func() { tab.ForwardTo(nil, 0, 0) }},
	} {
		observe.on()
		if tab.CellView() != nil {
			t.Errorf("view handed out with a %s attached", observe.name)
		}
		observe.off()
		if tab.CellView() == nil {
			t.Errorf("view withheld after the %s was removed", observe.name)
		}
	}
}

func TestSetBlockRowValidation(t *testing.T) {
	tab := New(2, 10)
	for _, f := range []func(){
		func() { tab.SetBlockRow(-1, []Cell{{}}, 1) },
		func() { tab.SetBlockRow(0, nil, 1) },
		func() { tab.SetBlockRow(0, []Cell{{}}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid SetBlockRow did not panic")
				}
			}()
			f()
		}()
	}
}

func TestLazyRowsReadZero(t *testing.T) {
	tab := New(2, 5)
	if tab.At(1, 4) != (Cell{}) {
		t.Error("unallocated row not zero")
	}
	if tab.HeapCells() != 0 {
		t.Errorf("HeapCells = %d before any write", tab.HeapCells())
	}
}

func TestRecorderCounts(t *testing.T) {
	tab := New(2, 4)
	rec := NewRecorder(tab.Size())
	tab.Attach(rec)
	// Query 1: probe (0,1) at step 0, (1,2) at step 1.
	tab.Probe(0, 0, 1)
	tab.Probe(1, 1, 2)
	rec.EndQuery()
	// Query 2: probe (0,1) at step 0 twice (adaptive revisit) and stop.
	tab.Probe(0, 0, 1)
	tab.Probe(0, 0, 1)
	rec.EndQuery()
	tab.Detach()
	// After detach, probes are not recorded.
	tab.Probe(0, 0, 0)

	if rec.Queries != 2 {
		t.Fatalf("Queries = %d", rec.Queries)
	}
	if got := rec.Total[tab.Index(0, 1)]; got != 3 {
		t.Errorf("Total[(0,1)] = %d, want 3", got)
	}
	if got := rec.Total[tab.Index(0, 0)]; got != 0 {
		t.Errorf("post-detach probe recorded")
	}
	if got := rec.PerStep[0][tab.Index(0, 1)]; got != 3 {
		t.Errorf("PerStep[0][(0,1)] = %d, want 3", got)
	}
	if got := rec.PerStep[1][tab.Index(1, 2)]; got != 1 {
		t.Errorf("PerStep[1][(1,2)] = %d, want 1", got)
	}
	if got := rec.ProbesPerQuery(); got != 2.0 {
		t.Errorf("ProbesPerQuery = %v, want 2", got)
	}
	if got := rec.MaxStepContention(); got != 1.5 {
		t.Errorf("MaxStepContention = %v, want 1.5", got)
	}
	if got := rec.MaxTotalContention(); got != 1.5 {
		t.Errorf("MaxTotalContention = %v, want 1.5", got)
	}
	if got := rec.StepMass(0); got != 1.5 {
		t.Errorf("StepMass(0) = %v, want 1.5", got)
	}
	if got := rec.StepMass(1); got != 0.5 {
		t.Errorf("StepMass(1) = %v, want 0.5", got)
	}
	if got := rec.StepMass(7); got != 0 {
		t.Errorf("StepMass(7) = %v, want 0", got)
	}
}

func TestEmptyRecorder(t *testing.T) {
	rec := NewRecorder(10)
	if rec.MaxStepContention() != 0 || rec.MaxTotalContention() != 0 || rec.ProbesPerQuery() != 0 {
		t.Error("empty recorder not all-zero")
	}
}

func TestProbeIndexPanics(t *testing.T) {
	tab := New(1, 3)
	defer func() {
		if recover() == nil {
			t.Error("ProbeIndex(3) did not panic")
		}
	}()
	tab.ProbeIndex(0, 3)
}

func TestSpanPerCell(t *testing.T) {
	sp := Span{Start: 0, Count: 4, Mass: 1}
	if sp.PerCell() != 0.25 {
		t.Errorf("PerCell = %v", sp.PerCell())
	}
}

func TestStepSpecMass(t *testing.T) {
	s := StepSpec{{0, 2, 0.5}, {10, 1, 0.25}}
	if got := s.Mass(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Mass = %v, want 0.75", got)
	}
}

func TestValidate(t *testing.T) {
	good := ProbeSpec{
		UniformSpan(0, 10, 1),
		PointSpan(5, 0.5),
		{},
	}
	if err := good.Validate(10); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []ProbeSpec{
		{StepSpec{{Start: -1, Count: 2, Mass: 1}}},
		{StepSpec{{Start: 9, Count: 2, Mass: 1}}},
		{StepSpec{{Start: 0, Count: 0, Mass: 1}}},
		{StepSpec{{Start: 0, Count: 1, Mass: -0.5}}},
		{StepSpec{{Start: 0, Count: 1, Mass: 0.7}, {Start: 1, Count: 1, Mass: 0.7}}},
	}
	for i, p := range bad {
		if err := p.Validate(10); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestMaxCellProbDisjoint(t *testing.T) {
	p := ProbeSpec{
		StepSpec{{0, 4, 1}},                // 0.25 each
		StepSpec{{0, 1, 0.5}, {5, 5, 0.5}}, // 0.5 point, 0.1 each
	}
	got := p.MaxCellProb()
	if math.Abs(got[0]-0.25) > 1e-12 || math.Abs(got[1]-0.5) > 1e-12 {
		t.Errorf("MaxCellProb = %v", got)
	}
}

func TestMaxCellProbOverlapping(t *testing.T) {
	// Two overlapping spans: [0,4) at 0.25/cell and [2,6) at 0.1/cell.
	// Cells 2,3 receive 0.35.
	p := ProbeSpec{StepSpec{{0, 4, 1.0}, {2, 4, 0.4}}}
	got := p.MaxCellProb()[0]
	if math.Abs(got-0.35) > 1e-12 {
		t.Errorf("overlap max = %v, want 0.35", got)
	}
}

func TestMaxCellProbEmptyStep(t *testing.T) {
	p := ProbeSpec{StepSpec{}}
	if got := p.MaxCellProb()[0]; got != 0 {
		t.Errorf("empty step max = %v", got)
	}
}

// TestMaxCellProbMatchesBruteForce cross-checks the sweep against a dense
// per-cell accumulation on random span sets.
func TestMaxCellProbMatchesBruteForce(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		const cells = 50
		nspans := 1 + r.Intn(6)
		step := make(StepSpec, nspans)
		for i := range step {
			start := r.Intn(cells)
			count := 1 + r.Intn(cells-start)
			step[i] = Span{Start: start, Count: count, Mass: r.Float64() / float64(nspans)}
		}
		dense := make([]float64, cells)
		for _, sp := range step {
			for j := sp.Start; j < sp.Start+sp.Count; j++ {
				dense[j] += sp.PerCell()
			}
		}
		want := 0.0
		for _, v := range dense {
			if v > want {
				want = v
			}
		}
		got := ProbeSpec{step}.MaxCellProb()[0]
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: sweep %v, brute force %v (spans %+v)", trial, got, want, step)
		}
	}
}

// Property: recorded Monte-Carlo step mass of an always-executed step is 1.
func TestRecorderStepMassProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		tab := New(1, 16)
		rec := NewRecorder(tab.Size())
		tab.Attach(rec)
		const q = 50
		for i := 0; i < q; i++ {
			tab.Probe(0, 0, r.Intn(16))
			rec.EndQuery()
		}
		return math.Abs(rec.StepMass(0)-1.0) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkProbeRecorded(b *testing.B) {
	tab := New(4, 1024)
	rec := NewRecorder(tab.Size())
	tab.Attach(rec)
	for i := 0; i < b.N; i++ {
		tab.Probe(i&3, i&3, i&1023)
	}
}

// TestForwardTo checks probe mirroring onto a parent table: recorder, trace
// and chained forwarding all see the translated (step, cell) coordinates
// while the probe reads the child's own cells.
func TestForwardTo(t *testing.T) {
	child := New(1, 4)
	child.Set(0, 2, Cell{Lo: 7, Hi: 9})
	parent := New(1, 10)
	grand := New(1, 20)

	prec := NewRecorder(parent.Size())
	parent.Attach(prec)
	var traced []int
	parent.SetTrace(func(step, cell int) { traced = append(traced, step, cell) })
	grec := NewRecorder(grand.Size())
	grand.Attach(grec)

	parent.ForwardTo(grand, 10, 1) // parent cell c → grand cell 10+c, step s → s+1
	child.ForwardTo(parent, 6, 1)  // child cell c → parent cell 6+c, step s → s+1

	c := child.Probe(0, 0, 2)
	if c.Lo != 7 || c.Hi != 9 {
		t.Fatalf("probe read %+v, want the child's own cell", c)
	}
	child.ProbeIndex(2, 3)

	// Parent accounting: child (0,2) → (1,8); child (2,3) → (3,9).
	if prec.Total[8] != 1 || prec.Total[9] != 1 {
		t.Fatalf("parent totals %v", prec.Total)
	}
	if prec.PerStep[1][8] != 1 || prec.PerStep[3][9] != 1 {
		t.Fatalf("parent per-step counts wrong: %v", prec.PerStep)
	}
	if len(traced) != 4 || traced[0] != 1 || traced[1] != 8 || traced[2] != 3 || traced[3] != 9 {
		t.Fatalf("parent trace %v", traced)
	}
	// Chained forwarding: parent (1,8) → grand (2,18); (3,9) → (4,19).
	if grec.Total[18] != 1 || grec.Total[19] != 1 {
		t.Fatalf("grandparent totals %v", grec.Total)
	}
	if grec.PerStep[2][18] != 1 || grec.PerStep[4][19] != 1 {
		t.Fatalf("grandparent per-step counts wrong: %v", grec.PerStep)
	}
	// The child's own accounting is untouched by forwarding.
	if child.Recorder() != nil {
		t.Fatal("forwarding attached a recorder to the child")
	}

	// Detaching the link stops the mirroring.
	child.ForwardTo(nil, 0, 0)
	child.Probe(0, 0, 1)
	if prec.Total[7] != 0 {
		t.Fatal("probe forwarded after ForwardTo(nil)")
	}
}
