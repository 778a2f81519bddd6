// Package workload provides stateful query generators that sit between the
// paper's two analyzed extremes — the uniform positive/negative class of §2
// and the adversarial distributions of §3. They model what real concurrent
// readers do: temporal locality with a drifting working set and sequential
// scans. Each generator implements dist.Dist, so the contention machinery
// consumes them directly. Scenario (scenario.go) is the named, seeded
// schedule every driver of the service and the benchmarks shares.
package workload

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/rng"
)

// WorkingSet models temporal locality: with probability Locality the query
// comes uniformly from a working set of WSize keys; otherwise uniformly
// from the full key set. After every query, with probability Churn one
// working-set member is replaced by a random outside key, so the hot set
// drifts over time the way request popularity does.
type WorkingSet struct {
	keys     []uint64
	ws       []int // indices into keys
	inWS     map[int]bool
	Locality float64
	Churn    float64
}

// NewWorkingSet builds a working-set generator. wsize must be in [1, len(keys)];
// locality and churn in [0, 1].
func NewWorkingSet(keys []uint64, wsize int, locality, churn float64, r *rng.RNG) (*WorkingSet, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("workload: empty key set")
	}
	if wsize < 1 || wsize > len(keys) {
		return nil, fmt.Errorf("workload: working set size %d outside [1, %d]", wsize, len(keys))
	}
	if locality < 0 || locality > 1 || churn < 0 || churn > 1 {
		return nil, fmt.Errorf("workload: locality %v / churn %v outside [0,1]", locality, churn)
	}
	w := &WorkingSet{
		keys:     keys,
		Locality: locality,
		Churn:    churn,
		inWS:     make(map[int]bool, wsize),
	}
	perm := r.Perm(len(keys))
	for _, i := range perm[:wsize] {
		w.ws = append(w.ws, i)
		w.inWS[i] = true
	}
	return w, nil
}

// Sample draws the next query and advances the working-set drift.
func (w *WorkingSet) Sample(r *rng.RNG) uint64 {
	var k uint64
	if r.Float64() < w.Locality {
		k = w.keys[w.ws[r.Intn(len(w.ws))]]
	} else {
		k = w.keys[r.Intn(len(w.keys))]
	}
	if r.Float64() < w.Churn && len(w.ws) < len(w.keys) {
		// Replace a random working-set member with an outside key.
		pos := r.Intn(len(w.ws))
		for try := 0; try < 64; try++ {
			cand := r.Intn(len(w.keys))
			if !w.inWS[cand] {
				delete(w.inWS, w.ws[pos])
				w.ws[pos] = cand
				w.inWS[cand] = true
				break
			}
		}
	}
	return k
}

// Name identifies the workload in reports.
func (w *WorkingSet) Name() string {
	return fmt.Sprintf("working-set(w=%d,l=%.2f)", len(w.ws), w.Locality)
}

// Scan cycles through the key set in a fixed order — the access pattern of
// a batch job validating every member. It is deterministic, maximally
// correlated, and far from both of the paper's analyzed distributions.
type Scan struct {
	keys []uint64
	pos  int
}

// NewScan builds a scanning generator over keys.
func NewScan(keys []uint64) (*Scan, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("workload: empty key set")
	}
	return &Scan{keys: keys}, nil
}

// Sample returns the next key in cyclic order.
func (s *Scan) Sample(*rng.RNG) uint64 {
	k := s.keys[s.pos]
	s.pos = (s.pos + 1) % len(s.keys)
	return k
}

// Name identifies the workload in reports.
func (s *Scan) Name() string { return fmt.Sprintf("scan(%d)", len(s.keys)) }

// Interface assertions.
var (
	_ dist.Dist = (*WorkingSet)(nil)
	_ dist.Dist = (*Scan)(nil)
)
