package lincheck

import "fmt"

// Set is the concurrent set a Recorder drives: one goroutine's view of it.
// Reads that need a random source bind it in the view.
type Set interface {
	Insert(key uint64) (bool, error)
	Delete(key uint64) (bool, error)
	Contains(key uint64) (bool, error)
	ContainsBatch(keys []uint64, out []bool) error
}

// Recorder runs one goroutine's operations on a Set and records each
// completed one with invoke and return times from a shared Clock, so a
// concurrent test can check the history it drove. Operations that return an
// error are not recorded. It is not safe for concurrent use: give each
// goroutine its own.
type Recorder struct {
	set Set
	clk *Clock
	ops []Op
}

// NewRecorder returns a recorder of operations on s timed by clk.
func NewRecorder(s Set, clk *Clock) *Recorder { return &Recorder{set: s, clk: clk} }

// Write runs Insert(key), or Delete(key) when del, and records it.
func (r *Recorder) Write(key uint64, del bool) (bool, error) {
	call := r.clk.Now()
	kind := Insert
	var changed bool
	var err error
	if del {
		kind = Delete
		changed, err = r.set.Delete(key)
	} else {
		changed, err = r.set.Insert(key)
	}
	if err == nil {
		r.ops = append(r.ops, Op{Kind: kind, Key: key, Result: changed, Call: call, Return: r.clk.Now()})
	}
	return changed, err
}

// Contains runs Contains(key) and records it.
func (r *Recorder) Contains(key uint64) (bool, error) {
	call := r.clk.Now()
	ok, err := r.set.Contains(key)
	if err == nil {
		r.ops = append(r.ops, Op{Kind: Contains, Key: key, Result: ok, Call: call, Return: r.clk.Now()})
	}
	return ok, err
}

// ContainsBatch runs ContainsBatch and records every answer as a Contains
// spanning the whole batch call. Set semantics are P-compositional, so this
// asks no more of the batch than that each answer be linearizable on its
// own: it need not come from one atomic snapshot of the whole set.
func (r *Recorder) ContainsBatch(keys []uint64, out []bool) error {
	call := r.clk.Now()
	err := r.set.ContainsBatch(keys, out)
	if err == nil {
		ret := r.clk.Now()
		for i, k := range keys {
			r.ops = append(r.ops, Op{Kind: Contains, Key: k, Result: out[i], Call: call, Return: ret})
		}
	}
	return err
}

// Ops returns the operations recorded so far, in the order they returned.
func (r *Recorder) Ops() []Op { return r.ops }

// CheckRecorded merges the recorders' histories and checks them with
// Check. It also errors when nothing was recorded, and otherwise returns
// the number of operations checked.
func CheckRecorded(recs []*Recorder, initial func(key uint64) bool) (int, error) {
	var h []Op
	for _, r := range recs {
		h = append(h, r.ops...)
	}
	if len(h) == 0 {
		return 0, fmt.Errorf("lincheck: no operations recorded")
	}
	return len(h), Check(h, initial)
}

// Members returns an initial-membership function for keys.
func Members(keys []uint64) func(key uint64) bool {
	set := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return func(k uint64) bool { return set[k] }
}
