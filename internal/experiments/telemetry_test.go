package experiments

import (
	"fmt"
	"strconv"
	"testing"
)

// TestA8ShapeTelemetryAgreement checks the live Φ̂ estimator against the
// exact analysis: the deterministic round-robin drive must land the core
// dictionary's measured maxΦ̂·n within 5% of contention.Exact (the
// acceptance bound; in practice the agreement is exact), and every scheme's
// live probes-per-query must stay within 5% of its exact expectation.
func TestA8ShapeTelemetryAgreement(t *testing.T) {
	cfg := Quick()
	cfg.Structures = []string{"lcds", "bsearch", "cuckoo+rep"}
	tab, err := A8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("A8 rows = %d, want 3", len(tab.Rows))
	}
	col := func(row []string, i int) float64 {
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			t.Fatalf("row %v col %d: %v", row, i, err)
		}
		return v
	}
	sawCore := false
	for _, row := range tab.Rows {
		probesLive, probesExact := col(row, 2), col(row, 3)
		if probesExact <= 0 {
			t.Fatalf("%s: non-positive exact probes %v", row[0], probesExact)
		}
		if r := probesLive / probesExact; r < 0.95 || r > 1.05 {
			t.Errorf("%s: probes/query live %.3f vs exact %.3f (ratio %.3f) outside 5%%",
				row[0], probesLive, probesExact, r)
		}
		if row[0] == "bsearch" {
			// Every simulated bsearch query reads the root, so folding the
			// replayed sequences must count that cell once per sequence.
			if sim := col(row, 8); sim != float64(cfg.FixedN) {
				t.Errorf("bsearch: maxΦ̂·n(sim) %.3f, want n = %d", sim, cfg.FixedN)
			}
		}
		if row[0] == "lcds" {
			sawCore = true
			ratio := col(row, 6)
			if ratio < 0.95 || ratio > 1.05 {
				t.Errorf("lcds: maxΦ̂·n ratio %.3f outside the 5%% acceptance bound", ratio)
			}
			// The round-robin drive is deterministic for the core scheme:
			// the agreement should be exact, not merely within tolerance.
			if live, exact := col(row, 4), col(row, 5); live != exact {
				t.Errorf("lcds: maxΦ̂·n live %.3f != exact %.3f under deterministic drive", live, exact)
			}
		}
	}
	if !sawCore {
		t.Fatal("A8 table has no lcds row")
	}
}

// TestA10ShapeSketchAgreement checks the reservoir (step, cell) sketch
// against the exact probe matrix on the two anchor regimes: under the
// point-mass drive, deterministic-probe schemes (bsearch, cuckoo) must
// score a perfect per-step top-1 with zero share error, while the core
// randomized dictionary must NOT — its intermediate probes are randomized
// precisely so no stable hot cell forms, so a high top-1 there would mean
// the probe path stopped being input-independent.
func TestA10ShapeSketchAgreement(t *testing.T) {
	cfg := Quick()
	cfg.Structures = []string{"lcds", "bsearch", "cuckoo"}
	tab, err := A10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("A10 rows = %d, want 6 (3 structures x 2 dists)", len(tab.Rows))
	}
	frac := func(row []string) (hit, steps int) {
		if _, err := fmt.Sscanf(row[5], "%d/%d", &hit, &steps); err != nil {
			t.Fatalf("row %v top1 %q: %v", row, row[5], err)
		}
		return hit, steps
	}
	for _, row := range tab.Rows {
		name, dist := row[0], row[1]
		hit, steps := frac(row)
		if steps == 0 {
			t.Fatalf("%s/%s: no steps compared", name, dist)
		}
		if row[4] == "0" {
			t.Fatalf("%s/%s: sketch retained no samples", name, dist)
		}
		if dist != "point" {
			continue
		}
		switch name {
		case "bsearch", "cuckoo":
			if hit != steps {
				t.Errorf("%s/point: top1 %d/%d, want perfect — deterministic probe path has one cell per step", name, hit, steps)
			}
			if row[7] != "0.000" {
				t.Errorf("%s/point: shareΔmax %s, want 0.000", name, row[7])
			}
			if row[8] != "1.000" {
				t.Errorf("%s/point: hotShare %s, want 1.000", name, row[8])
			}
		case "lcds":
			if 2*hit > steps {
				t.Errorf("lcds/point: top1 %d/%d — randomized intermediate probes should leave most steps without a stable argmax", hit, steps)
			}
		}
	}
}
