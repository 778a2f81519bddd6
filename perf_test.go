package lcds

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// TestContainsZeroAlloc guards the zero-allocation query fast path: a
// regression that reintroduces per-query heap allocation fails here rather
// than silently in a benchmark. The non-pooled assertion below (explicit
// scratch, sequential RNG) is strictly allocation-free under every build
// mode, race detector included; the pooled facade paths are checked by
// assertPooledPathsZeroAlloc, whose allocation counting is build-tag
// guarded (sync.Pool drops Puts at random under the race detector by
// design, so the race build exercises those paths for correctness only).
func TestContainsZeroAlloc(t *testing.T) {
	keys := testKeys(4096, 9)
	d, err := New(keys, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}

	// Non-pooled path: explicit scratch, sequential RNG — no pools involved,
	// so this assertion holds under -race too.
	r := rng.New(1)
	sc := new(core.QueryScratch)
	if _, err := d.inner.ContainsScratch(keys[0], r, sc); err != nil {
		t.Fatal(err)
	}
	i := 0
	if allocs := testing.AllocsPerRun(400, func() {
		i++
		if _, err := d.inner.ContainsScratch(keys[i%len(keys)], r, sc); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Fatalf("core ContainsScratch: %v allocs/op, want 0", allocs)
	}

	// Non-pooled wavefront batch path: explicit scratch whose arena is
	// grown once, then reused — the scheduler itself must not allocate at
	// any width, including the widest.
	d16, err := New(keys, WithSeed(9), WithBatchGroup(16))
	if err != nil {
		t.Fatal(err)
	}
	batch := keys[:256]
	out := make([]bool, len(batch))
	bsc := new(core.QueryScratch)
	if err := d16.inner.ContainsBatch(batch, out, r, bsc); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := d16.inner.ContainsBatch(batch, out, r, bsc); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Fatalf("core ContainsBatch wavefront: %v allocs per batch, want 0", allocs)
	}

	assertPooledPathsZeroAlloc(t, d, keys)

	// Sampled telemetry keeps the per-probe sink path (1-in-k decision,
	// striped per-step and per-cell adds); it must not allocate either.
	sampled, err := New(keys, WithSeed(9), WithTelemetry(TelemetryConfig{Sample: 64}))
	if err != nil {
		t.Fatal(err)
	}
	assertPooledPathsZeroAlloc(t, sampled, keys)
}

func TestContainsBatchFacade(t *testing.T) {
	keys := testKeys(2000, 10)
	d, err := New(keys[:1000], WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]bool, len(keys))
	if err := d.ContainsBatch(keys, out); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if want := i < 1000; out[i] != want {
			t.Fatalf("batch[%d] (key %d) = %v, want %v", i, k, out[i], want)
		}
	}
	if err := d.ContainsBatch(keys, out[:10]); err == nil {
		t.Error("short output slice accepted")
	}
}

func TestDynamicContainsBatchFacade(t *testing.T) {
	keys := testKeys(1500, 11)
	d, err := NewDynamic(keys[:1000], 0.5, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[1000:1200] {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	d.Quiesce()
	out := make([]bool, len(keys))
	if err := d.ContainsBatch(keys, out); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		want := i < 1200
		got, err := d.Contains(k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || out[i] != want {
			t.Fatalf("key %d: batch=%v single=%v want %v", k, out[i], got, want)
		}
	}
}

// TestParallelBuildFacade: WithParallelBuild must be deterministic per
// (seed, workers) and build a correct dictionary.
func TestParallelBuildFacade(t *testing.T) {
	keys := testKeys(3000, 12)
	a, err := New(keys, WithSeed(12), WithParallelBuild(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(keys, WithSeed(12), WithParallelBuild(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("parallel facade build not reproducible: %+v != %+v", a.Stats(), b.Stats())
	}
	for _, k := range keys {
		if !a.Contains(k) {
			t.Fatalf("lost key %d", k)
		}
	}
	if _, err := New(keys, WithParallelBuild(0)); err == nil {
		t.Error("WithParallelBuild(0) accepted")
	}
}
