//go:build !race

package lcds

import (
	"runtime/debug"
	"testing"
)

// assertPooledPathsZeroAlloc asserts strict zero allocations on the pooled
// facade paths (Contains with pooled scratch + sharded source, and
// ContainsBatch). GC is paused while counting so pool refills after a
// collection don't land in the measurement. The race build replaces this
// with a correctness-only pass — see zeroalloc_race_test.go.
func assertPooledPathsZeroAlloc(t *testing.T, d *Dict, keys []uint64) {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)

	// Facade single-key path (pooled scratch + sharded source).
	d.Contains(keys[0])
	i := 0
	if allocs := testing.AllocsPerRun(400, func() {
		i++
		if !d.Contains(keys[i%len(keys)]) {
			t.Error("lost key")
		}
	}); allocs != 0 {
		t.Fatalf("facade Contains: %v allocs/op, want 0", allocs)
	}

	// Facade batch path.
	batch := keys[:256]
	out := make([]bool, len(batch))
	if err := d.ContainsBatch(batch, out); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := d.ContainsBatch(batch, out); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Fatalf("facade ContainsBatch: %v allocs per batch, want 0", allocs)
	}
}

// TestStaticTelemetryZeroAlloc: with telemetry a static dictionary counts
// each query's probes into a tally in its pooled scratch and captures the
// cells of the queries it samples into the scratch's reused log, so
// instrumented Contains and ContainsBatch allocate nothing per call — every
// query captured (Sample 1), 1 in 8, and on the sharded composite.
func TestStaticTelemetryZeroAlloc(t *testing.T) {
	keys := testKeys(4096, 9)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"sample1", []Option{WithTelemetry(TelemetryConfig{Sample: 1})}},
		{"sample8", []Option{WithTelemetry(TelemetryConfig{Sample: 8})}},
		{"sharded/sample1", []Option{WithShards(4), WithTelemetry(TelemetryConfig{Sample: 1})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := New(keys, append([]Option{WithSeed(9)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			assertPooledPathsZeroAlloc(t, d, keys)
			if s := d.Telemetry().Snapshot(); s.Probes == 0 || s.MaxPhi == 0 {
				t.Fatalf("no probes or cells reached the telemetry: %+v", s)
			}
		})
	}
}

// TestDynamicTelemetryZeroAlloc: with Sample-1 telemetry the dynamic read
// paths count probes into a tally that lives in the pooled scratch and is
// flushed in place, so instrumented Contains and ContainsBatch allocate
// nothing per call.
func TestDynamicTelemetryZeroAlloc(t *testing.T) {
	keys := testKeys(4096, 45)
	d, err := NewDynamic(keys[:3500], 0.25, WithSeed(45), WithTelemetry(TelemetryConfig{Sample: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[3500:] {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	d.Quiesce()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)

	d.Contains(keys[0])
	i := 0
	if allocs := testing.AllocsPerRun(400, func() {
		i++
		if ok, err := d.Contains(keys[i%len(keys)]); err != nil || !ok {
			t.Errorf("lost key: %v %v", ok, err)
		}
	}); allocs != 0 {
		t.Fatalf("instrumented DynamicDict.Contains: %v allocs/op, want 0", allocs)
	}

	batch := append(append([]uint64(nil), keys[:256]...), keys[3500:3756]...)
	out := make([]bool, len(batch))
	if err := d.ContainsBatch(batch, out); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := d.ContainsBatch(batch, out); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Fatalf("instrumented DynamicDict.ContainsBatch: %v allocs per batch, want 0", allocs)
	}
	if d.Telemetry().Snapshot().Probes == 0 {
		t.Fatal("no probes reached the telemetry")
	}
}

// TestDynamicZeroAlloc: without telemetry a 1-shard DynamicDict answers
// Contains and ContainsBatch on pooled scratch and hands a batch straight
// to its shard without grouping it, and an Insert of a present key claims
// nothing, so none of them allocates per call. A 4-shard composite groups a
// batch in a pooled batch state, so its sequential ContainsBatch allocates
// nothing either (the facade's ContainsBatch fans the groups out to
// goroutines, which may allocate).
func TestDynamicZeroAlloc(t *testing.T) {
	keys := testKeys(4096, 46)
	d, err := NewDynamic(keys[:3500], 0.25, WithSeed(46))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[3500:] {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	d.Quiesce()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)

	d.Contains(keys[0])
	i := 0
	if allocs := testing.AllocsPerRun(400, func() {
		i++
		if ok, err := d.Contains(keys[i%len(keys)]); err != nil || !ok {
			t.Errorf("lost key: %v %v", ok, err)
		}
	}); allocs != 0 {
		t.Fatalf("DynamicDict.Contains: %v allocs/op, want 0", allocs)
	}

	batch := append(append([]uint64(nil), keys[:256]...), keys[3500:3756]...)
	out := make([]bool, len(batch))
	if err := d.ContainsBatch(batch, out); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := d.ContainsBatch(batch, out); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Fatalf("DynamicDict.ContainsBatch: %v allocs per batch, want 0", allocs)
	}

	d4, err := NewDynamic(keys[:3500], 0.25, WithSeed(46), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := d4.shards.ContainsBatch(batch, out, d4.src); err != nil {
		t.Fatal(err)
	}
	for j, ok := range out {
		if ok != (j < 256) {
			t.Fatalf("4-shard ContainsBatch: key %d answered %v", batch[j], ok)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := d4.shards.ContainsBatch(batch, out, d4.src); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Fatalf("4-shard ContainsBatch: %v allocs per batch, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(400, func() {
		i++
		if changed, err := d.Insert(keys[i%len(keys)]); err != nil || changed {
			t.Errorf("Insert of a present key: changed %v, err %v", changed, err)
		}
	}); allocs != 0 {
		t.Fatalf("DynamicDict.Insert of a present key: %v allocs/op, want 0", allocs)
	}
}
