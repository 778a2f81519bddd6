//go:build !race

package core

import (
	"testing"

	"repro/internal/rng"
)

// TestBuildAllocations: a build allocates per build, not per group or
// bucket. The group histograms are encoded into one word arena through one
// loads slice, and every bucket's perfect-hash search shares one scratch.
// A build at n=4096 makes 52 allocations (Go 1.24); the bound leaves room
// for a runtime's own changes, not for allocations that grow with the key
// count. The race detector's pools drop their contents at random, so the
// count holds only without it.
func TestBuildAllocations(t *testing.T) {
	keys := distinctKeys(rng.New(7), 4096)
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(keys, Params{}, 11); err != nil {
			t.Fatal(err)
		}
	}); allocs > 64 {
		t.Fatalf("Build(n=4096): %v allocs, want ≤ 64", allocs)
	}
}
