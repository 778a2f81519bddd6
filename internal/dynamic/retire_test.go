//go:build go1.24

package dynamic

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/rng"
)

// stepTallySink is a Sink that sums the tallies it is handed per step.
type stepTallySink struct {
	mu    sync.Mutex
	steps []uint64
}

func (s *stepTallySink) TallyLen() int { return len(s.steps) }

func (s *stepTallySink) FlushTally(tally []uint64) {
	s.mu.Lock()
	for i, c := range tally {
		s.steps[i] += c
		tally[i] = 0
	}
	s.mu.Unlock()
}

// TestPooledScratchesDropRetiredTable: the cell view holds the base table's
// rows only for the call that took it, so the read and batch pools' scratches
// — which outlive the epoch they last served — must not keep a retired
// epoch's table or its cells reachable. Every scratch the pools create is
// held by the test, so the check does not depend on the pools being emptied
// by GC.
func TestPooledScratchesDropRetiredTable(t *testing.T) {
	keys := distinctKeys(rng.New(84), 3000)
	sink := &stepTallySink{steps: make([]uint64, 65)}
	d, err := New(keys[:2000], Params{Epsilon: 0.25, SyncRebuild: true, Sink: sink}, 85)
	if err != nil {
		t.Fatal(err)
	}
	var held []any
	for _, p := range []*sync.Pool{&d.scratch, &d.batch} {
		mk := p.New
		p.New = func() any {
			v := mk()
			held = append(held, v)
			return v
		}
	}
	// The view holds row slices, not the Table, so watch the row arena too.
	retired := weak.Make(d.BaseTable())
	rows := d.BaseTable().CellView()
	if rows == nil {
		t.Fatal("the base table does not hand out its rows")
	}
	retiredCells := weak.Make(&rows[len(rows)-1][0]) // the data row, in the arena
	rows = nil
	r := rng.NewSharded(86, 0)
	out := make([]bool, 1024)
	for i := 0; i < 4; i++ {
		for _, k := range keys[:64] {
			if ok, err := d.Contains(k, r); err != nil || !ok {
				t.Fatalf("Contains(%d) = %v, %v", k, ok, err)
			}
		}
		if err := d.ContainsBatch(keys[:1024], out, r); err != nil {
			t.Fatal(err)
		}
	}
	if len(held) < 2 {
		t.Fatalf("pools created %d scratches, want both pools warmed", len(held))
	}
	for _, k := range keys[2000:] {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	d.Quiesce()
	if d.Stats().Epoch < 2 {
		t.Fatal("no rebuild")
	}
	runtime.GC()
	runtime.GC()
	if retired.Value() != nil || retiredCells.Value() != nil {
		t.Fatalf("after two GCs a retired epoch's base table is reachable: table %v, cells %v",
			retired.Value() != nil, retiredCells.Value() != nil)
	}
	runtime.KeepAlive(held)
}
