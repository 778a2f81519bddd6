package dynamic

import (
	"repro/internal/lincheck"
	"repro/internal/rng"
)

// sourced is a lincheck.Set view of a Dict whose reads draw from r.
type sourced struct {
	*Dict
	r rng.Source
}

func (s sourced) Contains(k uint64) (bool, error) { return s.Dict.Contains(k, s.r) }

func (s sourced) ContainsBatch(keys []uint64, out []bool) error {
	return s.Dict.ContainsBatch(keys, out, s.r)
}

// newRecorders returns n recorders of operations on d on one clock, their
// reads drawing from r (which must be safe for concurrent use).
func newRecorders(d *Dict, r rng.Source, n int) []*lincheck.Recorder {
	clk := lincheck.NewClock()
	recs := make([]*lincheck.Recorder, n)
	for i := range recs {
		recs[i] = lincheck.NewRecorder(sourced{d, r}, clk)
	}
	return recs
}
