package telemetry_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/contention"
	"repro/internal/hash"
	"repro/internal/rng"
	"repro/internal/scheme"
	"repro/internal/telemetry"
	"repro/internal/workload"

	// Registry side effects: the roster registers itself from these
	// packages' init functions.
	_ "repro/internal/baseline"
	_ "repro/internal/core"
)

// genKeys generates n distinct universe keys deterministically from seed.
func genKeys(n int, seed uint64) []uint64 {
	r := rng.New(seed)
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := r.Uint64n(hash.MaxKey)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestRosterTelemetryConformance is the whole-registry live-vs-exact battery:
// every registered scheme, feeding unsampled telemetry through a per-query
// capture of its table's probes and driven by a deterministic weighted
// schedule, must report a live maxΦ̂·n
// within 5% of contention.Exact under the schedule's realized distribution —
// for the uniform drive and for a heavily skewed Zipf(1.2) drive alike.
// Deterministic schemes agree exactly; replicated ones carry the
// extreme-value noise of their random replica draws, which the query budget
// keeps under the tolerance.
func TestRosterTelemetryConformance(t *testing.T) {
	const seed = 20100613
	n, passes := 2048, 64
	if testing.Short() {
		n, passes = 512, 40
	}
	keys := genKeys(n, seed)
	queries := passes * n
	for _, name := range scheme.Names() {
		for _, q := range []struct{ name, spec string }{
			{"uniform", "uniform"},
			{"zipf(1.2)", "zipf:1.2"},
		} {
			t.Run(fmt.Sprintf("%s/%s", name, q.name), func(t *testing.T) {
				s, err := scheme.Build(name, keys, seed)
				if err != nil {
					t.Fatal(err)
				}
				drive, err := workload.NewScenario(q.spec, keys, seed^0xc0)
				if err != nil {
					t.Fatal(err)
				}
				tel := telemetry.New(telemetry.Config{Sample: 1}, s.Table().Size(), s.N())
				feed := tel.NewCapture()
				s.Table().SetTrace(feed.Probe)
				r := rng.New(seed ^ 0xc0)
				for i := 0; i < queries; i++ {
					if _, err := s.Contains(drive.Next().Key, r); err != nil {
						t.Fatal(err)
					}
					feed.Flush()
					tel.ObserveQuery(true, false, 0)
				}
				s.Table().SetTrace(nil)
				ex, err := contention.Exact(s, drive.Support())
				if err != nil {
					t.Fatal(err)
				}
				drift := tel.Snapshot().CompareExact(ex)
				if math.Abs(drift.MaxPhiRatio-1) > 0.05 {
					t.Errorf("maxΦ̂ ratio %.4f outside [0.95, 1.05]: live %.4f exact %.4f (·n: %.1f vs %.1f)",
						drift.MaxPhiRatio, drift.MaxPhiLive, drift.MaxPhiExact,
						drift.MaxPhiLive*float64(n), drift.MaxPhiExact*float64(n))
				}
				if math.Abs(drift.ProbesRatio-1) > 0.05 {
					t.Errorf("probes/query ratio %.4f outside [0.95, 1.05]: live %.3f exact %.3f",
						drift.ProbesRatio, drift.ProbesLive, drift.ProbesExact)
				}
			})
		}
	}
}
