package lincheck

import (
	"strings"
	"sync"
	"testing"
)

// lockedSet is a mutex-guarded set. forget is a key whose inserts it
// reports as changes but never stores, a planted fault; the test drives no
// key 0, so forget 0 plants none.
type lockedSet struct {
	mu     sync.Mutex
	member map[uint64]bool
	forget uint64
}

func (s *lockedSet) Insert(k uint64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := !s.member[k]
	if k != s.forget {
		s.member[k] = true
	}
	return changed, nil
}

func (s *lockedSet) Delete(k uint64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := s.member[k]
	delete(s.member, k)
	return changed, nil
}

func (s *lockedSet) Contains(k uint64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.member[k], nil
}

func (s *lockedSet) ContainsBatch(keys []uint64, out []bool) error {
	for i, k := range keys {
		out[i], _ = s.Contains(k)
	}
	return nil
}

// TestRecorderChecksRecordedRuns records goroutines driving a correct set
// through every Recorder operation, and the same run on a set that drops
// one key's inserts: the first history checks, the second is rejected at
// that key.
func TestRecorderChecksRecordedRuns(t *testing.T) {
	if _, err := CheckRecorded(nil, absent); err == nil {
		t.Fatal("empty history accepted")
	}
	for _, forget := range []uint64{0, 3} {
		set := &lockedSet{member: map[uint64]bool{1: true}, forget: forget}
		clk := NewClock()
		recs := make([]*Recorder, 4)
		var wg sync.WaitGroup
		for g := range recs {
			recs[g] = NewRecorder(set, clk)
			wg.Add(1)
			go func(rec *Recorder, g int) {
				defer wg.Done()
				out := make([]bool, 2)
				for i := 0; i < 200; i++ {
					k := uint64(1 + (g+i)%4)
					rec.Write(k, false)
					rec.Contains(k)
					rec.ContainsBatch([]uint64{k, k + 1}, out)
					if i%3 == 0 {
						rec.Write(k, true)
					}
				}
			}(recs[g], g)
		}
		wg.Wait()
		n, err := CheckRecorded(recs, Members([]uint64{1}))
		switch {
		case forget == 0 && err != nil:
			t.Fatal(err)
		case forget != 0 && (err == nil || !strings.Contains(err.Error(), "key 3")):
			t.Fatalf("set that drops key 3's inserts passed (err %v)", err)
		case n != 4*(200*4+200/3+1):
			t.Fatalf("checked %d ops", n)
		}
	}
}
