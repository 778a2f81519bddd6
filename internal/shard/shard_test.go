package shard

import (
	"math"
	"testing"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dynamic"
	"repro/internal/hash"
	"repro/internal/rng"
	"repro/internal/scheme"

	_ "repro/internal/baseline"
)

func testKeys(n int, seed uint64) []uint64 {
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

func negativesFor(keys []uint64, n int, seed uint64) []uint64 {
	members := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		members[k] = true
	}
	r := rng.New(seed)
	out := make([]uint64, 0, n)
	for len(out) < n {
		k := r.Uint64n(hash.MaxKey)
		if !members[k] {
			out = append(out, k)
		}
	}
	return out
}

func TestNewValidates(t *testing.T) {
	if _, err := NewNamed([]uint64{1, 2}, 0, "lcds", 1); err == nil {
		t.Fatal("shard count 0 accepted")
	}
	if _, err := New([]uint64{1, 2}, 2, nil, 1); err == nil {
		t.Fatal("nil builder accepted")
	}
	if _, err := NewNamed([]uint64{1, 1}, 2, "lcds", 1); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, err := NewNamed([]uint64{1}, 2, "no-such", 1); err == nil {
		t.Fatal("unknown inner scheme accepted")
	}
	// The dynamic composite leaves key validation to each shard's
	// dynamic.New: a duplicate routes to its twin's shard.
	if _, err := NewDynamic([]uint64{1, 2}, 0, dynamic.Params{}, 1, nil); err == nil {
		t.Fatal("dynamic shard count 0 accepted")
	}
	keys := testKeys(64, 7)
	if _, err := NewDynamic(append(keys, keys[40]), 4, dynamic.Params{}, 1, nil); err == nil {
		t.Fatal("dynamic duplicate keys accepted")
	}
	if _, err := NewDynamic(append(keys, hash.MaxKey), 4, dynamic.Params{}, 1, nil); err == nil {
		t.Fatal("dynamic key outside the universe accepted")
	}
}

func TestMembership(t *testing.T) {
	keys := testKeys(1024, 11)
	negs := negativesFor(keys, 500, 12)
	for _, p := range []int{1, 2, 3, 8} {
		d, err := NewNamed(keys, p, "lcds", 7)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if d.N() != len(keys) {
			t.Fatalf("P=%d: N() = %d", p, d.N())
		}
		if got, want := d.Name(), "lcds×"+string(rune('0'+p)); got != want {
			t.Fatalf("P=%d: Name() = %q, want %q", p, got, want)
		}
		r := rng.New(99)
		for _, k := range keys {
			ok, err := d.Contains(k, r)
			if err != nil {
				t.Fatalf("P=%d Contains(%d): %v", p, k, err)
			}
			if !ok {
				t.Fatalf("P=%d: member %d lost", p, k)
			}
		}
		for _, k := range negs {
			ok, err := d.Contains(k, r)
			if err != nil {
				t.Fatalf("P=%d Contains(%d): %v", p, k, err)
			}
			if ok {
				t.Fatalf("P=%d: non-member %d found", p, k)
			}
		}
	}
}

func TestEmptyShardsAndEmptyDict(t *testing.T) {
	// 3 keys over 8 shards leaves most shards empty; 0 keys leaves all.
	for _, keys := range [][]uint64{testKeys(3, 5), nil} {
		d, err := NewNamed(keys, 8, "lcds", 3)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(1)
		for _, k := range keys {
			if ok, err := d.Contains(k, r); err != nil || !ok {
				t.Fatalf("member %d: ok=%v err=%v", k, ok, err)
			}
		}
		for _, k := range negativesFor(keys, 100, 6) {
			if ok, err := d.Contains(k, r); err != nil || ok {
				t.Fatalf("non-member %d: ok=%v err=%v", k, ok, err)
			}
		}
		q := dist.NewUniformSet(append([]uint64{12345}, negativesFor(keys, 31, 8)...), "")
		if _, err := contention.Exact(d, q.Support()); err != nil {
			t.Fatalf("Exact over empty-shard queries: %v", err)
		}
	}
}

// TestExactComposition is the acceptance criterion of the sharding layer:
// the composite's exact maxΦ (and hence maxΦ·s) must equal the analytic
// per-shard composition bit for bit, for P ∈ {1, 2, 8} — under the uniform
// positive distribution and under a mixed positive/negative one.
func TestExactComposition(t *testing.T) {
	keys := testKeys(2048, 21)
	mixed := append(append([]uint64(nil), keys[:512]...), negativesFor(keys, 512, 22)...)
	supports := map[string][]dist.Weighted{
		"uniform-positive": dist.NewUniformSet(keys, "").Support(),
		"mixed":            dist.NewUniformSet(mixed, "").Support(),
	}
	for _, p := range []int{1, 2, 8} {
		d, err := NewNamed(keys, p, "lcds", 31)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for label, support := range supports {
			ex, err := contention.Exact(d, support)
			if err != nil {
				t.Fatalf("P=%d %s Exact: %v", p, label, err)
			}
			composed, err := d.ComposeExact(support)
			if err != nil {
				t.Fatalf("P=%d %s ComposeExact: %v", p, label, err)
			}
			if ex.MaxStep != composed {
				t.Errorf("P=%d %s: composite maxΦ = %.17g, composed = %.17g (not bit-exact)",
					p, label, ex.MaxStep, composed)
			}
			if got, want := ex.RatioStep(), composed*float64(ex.Cells); got != want {
				t.Errorf("P=%d %s: ratioStep measured %.17g vs composed %.17g", p, label, got, want)
			}
		}
	}
}

// TestCompositionAgainstSerialExact pins the bit-exactness to the serial
// reference analyzer too (ExactWorkers(…, 1)), not just the parallel
// default.
func TestCompositionAgainstSerialExact(t *testing.T) {
	keys := testKeys(1024, 41)
	d, err := NewNamed(keys, 8, "lcds", 43)
	if err != nil {
		t.Fatal(err)
	}
	support := dist.NewUniformSet(keys, "").Support()
	ex, err := contention.ExactWorkers(d, support, 1)
	if err != nil {
		t.Fatal(err)
	}
	composed, err := d.ComposeExact(support)
	if err != nil {
		t.Fatal(err)
	}
	if ex.MaxStep != composed {
		t.Fatalf("serial maxΦ = %.17g, composed = %.17g", ex.MaxStep, composed)
	}
}

// TestCompositionOtherInners checks the composition is scheme-agnostic:
// any registered inner build composes exactly.
func TestCompositionOtherInners(t *testing.T) {
	keys := testKeys(512, 51)
	support := dist.NewUniformSet(keys, "").Support()
	for _, inner := range []string{"fks+rep", "cuckoo+rep", "bsearch", "chained+rep"} {
		d, err := NewNamed(keys, 4, inner, 53)
		if err != nil {
			t.Fatalf("%s: %v", inner, err)
		}
		ex, err := contention.Exact(d, support)
		if err != nil {
			t.Fatalf("%s: %v", inner, err)
		}
		composed, err := d.ComposeExact(support)
		if err != nil {
			t.Fatalf("%s: %v", inner, err)
		}
		if ex.MaxStep != composed {
			t.Errorf("%s×4: maxΦ %.17g vs composed %.17g", inner, ex.MaxStep, composed)
		}
	}
}

func TestProbeSpecShape(t *testing.T) {
	keys := testKeys(512, 61)
	d, err := NewNamed(keys, 4, "lcds", 63)
	if err != nil {
		t.Fatal(err)
	}
	cells := d.Table().Size()
	if cells != 2*d.RouteWidth() {
		t.Fatalf("composite has %d cells, want 2·R = %d", cells, 2*d.RouteWidth())
	}
	for _, x := range append(keys[:16:16], negativesFor(keys, 16, 64)...) {
		spec := d.ProbeSpec(x)
		if err := spec.Validate(cells); err != nil {
			t.Fatalf("spec for %d: %v", x, err)
		}
		// Step 0 is the full-mass uniform routing probe.
		if len(spec[0]) != 1 || spec[0][0].Start != 0 || spec[0][0].Count != d.RouteWidth() || spec[0][0].Mass != 1 {
			t.Fatalf("spec for %d: routing step = %+v", x, spec[0])
		}
		// All later mass lies inside the owning shard's cell range.
		i := d.ShardOf(x)
		lo := d.CellOffset(i)
		hi := lo + d.Shard(i).Table().Size()
		for t2, step := range spec[1:] {
			for _, sp := range step {
				if sp.Start < lo || sp.Start+sp.Count > hi {
					t.Fatalf("spec for %d step %d: span [%d,%d) outside shard range [%d,%d)",
						x, t2+1, sp.Start, sp.Start+sp.Count, lo, hi)
				}
			}
		}
	}
}

// TestForwarding checks that probes against shard tables are mirrored onto
// the composite table: a Monte-Carlo run over the composite agrees with the
// exact analysis.
func TestForwarding(t *testing.T) {
	keys := testKeys(1024, 71)
	d, err := NewNamed(keys, 4, "lcds", 73)
	if err != nil {
		t.Fatal(err)
	}
	q := dist.NewUniformSet(keys, "")
	ex, err := contention.Exact(d, q.Support())
	if err != nil {
		t.Fatal(err)
	}
	mc, err := contention.MonteCarlo(d, q, 60000, rng.New(75))
	if err != nil {
		t.Fatal(err)
	}
	if mc.Positives != mc.Queries {
		t.Fatalf("%d of %d positive queries answered true", mc.Positives, mc.Queries)
	}
	if math.Abs(mc.Probes-ex.Probes) > 0.05*ex.Probes {
		t.Fatalf("MC probes/query %.3f vs exact %.3f", mc.Probes, ex.Probes)
	}
	// The empirical per-step max overshoots the exact value by sampling
	// noise only; it must be within a small factor and never below.
	if mc.MaxStep < ex.MaxStep {
		t.Fatalf("MC maxΦ %.3g below exact %.3g — probes are going unrecorded", mc.MaxStep, ex.MaxStep)
	}
	if mc.RatioStep() > 10*ex.RatioStep() {
		t.Fatalf("MC ratio %.1f wildly above exact %.1f", mc.RatioStep(), ex.RatioStep())
	}
}

func TestBatchMatchesContains(t *testing.T) {
	keys := testKeys(1024, 81)
	d, err := NewNamed(keys, 4, "lcds", 83)
	if err != nil {
		t.Fatal(err)
	}
	queries := append(append([]uint64(nil), keys[:300]...), negativesFor(keys, 300, 84)...)
	want := make([]bool, len(queries))
	r := rng.New(85)
	for i, k := range queries {
		want[i], err = d.Contains(k, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	seq := make([]bool, len(queries))
	if err := d.ContainsBatch(queries, seq, rng.New(86)); err != nil {
		t.Fatal(err)
	}
	par := make([]bool, len(queries))
	if err := d.ContainsBatchParallel(queries, par, rng.NewSharded(87, 0)); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if seq[i] != want[i] || par[i] != want[i] {
			t.Fatalf("query %d (%d): contains=%v batch=%v parallel=%v", i, queries[i], want[i], seq[i], par[i])
		}
	}
}

func TestDynamicSharded(t *testing.T) {
	keys := testKeys(1024, 91)
	d, err := NewDynamic(keys, 4, dynamic.Params{}, 93, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Shards() != 4 {
		t.Fatalf("Shards() = %d", d.Shards())
	}
	if d.Len() != len(keys) {
		t.Fatalf("Len() = %d, want %d", d.Len(), len(keys))
	}
	src := rng.New(95)
	extra := negativesFor(keys, 200, 96)
	for _, k := range extra {
		if changed, err := d.Insert(k); err != nil || !changed {
			t.Fatalf("Insert(%d): changed=%v err=%v", k, changed, err)
		}
	}
	for _, k := range keys[:100] {
		if changed, err := d.Delete(k); err != nil || !changed {
			t.Fatalf("Delete(%d): changed=%v err=%v", k, changed, err)
		}
	}
	d.Quiesce()
	if got, want := d.Len(), len(keys)+len(extra)-100; got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	for _, k := range extra {
		if ok, err := d.Contains(k, src); err != nil || !ok {
			t.Fatalf("inserted %d: ok=%v err=%v", k, ok, err)
		}
	}
	for _, k := range keys[:100] {
		if ok, err := d.Contains(k, src); err != nil || ok {
			t.Fatalf("deleted %d still present (err=%v)", k, err)
		}
	}
	out := make([]bool, len(keys))
	if err := d.ContainsBatch(keys, out, src); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if want := i >= 100; out[i] != want {
			t.Fatalf("batch answer for %d = %v, want %v", k, out[i], want)
		}
	}
}

// TestPerShardRebuildIsolation is the point of dynamic sharding: an update
// storm confined to one shard rebuilds that shard alone.
func TestPerShardRebuildIsolation(t *testing.T) {
	keys := testKeys(2048, 101)
	d, err := NewDynamic(keys, 4, dynamic.Params{SyncRebuild: true}, 103, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := 2
	before := make([]int, d.Shards())
	for i := 0; i < d.Shards(); i++ {
		before[i] = d.Shard(i).Stats().Epoch
	}
	// Insert enough keys routed to the target shard to force rebuilds there.
	r := rng.New(105)
	inserted := 0
	for inserted < 600 {
		k := r.Uint64n(hash.MaxKey)
		if d.ShardOf(k) != target {
			continue
		}
		changed, err := d.Insert(k)
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			inserted++
		}
	}
	d.Quiesce()
	for i := 0; i < d.Shards(); i++ {
		ep := d.Shard(i).Stats().Epoch
		if i == target && ep <= before[i] {
			t.Errorf("shard %d absorbed %d inserts but never rebuilt (epoch %d)", i, inserted, ep)
		}
		if i != target && ep != before[i] {
			t.Errorf("shard %d rebuilt (epoch %d → %d) without receiving any update", i, before[i], ep)
		}
	}
	if d.Rebuilds() <= d.Shards() {
		t.Errorf("Rebuilds() = %d, want > %d", d.Rebuilds(), d.Shards())
	}
}

// TestShardZeroInnerSeed checks shard 0 of any composite builds with the
// caller's seed itself, so P = 1 wraps the very dictionary the unsharded
// builder produces.
func TestShardZeroInnerSeed(t *testing.T) {
	keys := testKeys(512, 111)
	d, err := NewNamed(keys, 1, "lcds", 113)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := scheme.Build("lcds", keys, 113)
	if err != nil {
		t.Fatal(err)
	}
	in, ok := d.Shard(0).(*core.Dict)
	if !ok {
		t.Fatalf("inner is %T", d.Shard(0))
	}
	// Same seed, same keys (a 1-way route preserves order) ⇒ identical
	// probe specs for every key.
	for _, k := range keys[:32] {
		a, b := in.ProbeSpec(k), plain.ProbeSpec(k)
		if len(a) != len(b) {
			t.Fatalf("spec lengths differ for %d", k)
		}
		for s := range a {
			if len(a[s]) != len(b[s]) {
				t.Fatalf("step %d differs for %d", s, k)
			}
			for j := range a[s] {
				if a[s][j] != b[s][j] {
					t.Fatalf("span %d of step %d differs for %d", j, s, k)
				}
			}
		}
	}
}

// TestDynamicShardedBatchUpdates checks the shard-parallel update fan-out
// against sequential semantics: changed counts must equal the number of keys
// whose membership actually flipped, duplicates within a batch counting once,
// with the batch spread across all shards.
func TestDynamicShardedBatchUpdates(t *testing.T) {
	keys := testKeys(1024, 111)
	d, err := NewDynamic(keys[:512], 4, dynamic.Params{}, 113, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 256 fresh keys + 128 already-present keys + 64 in-batch duplicates.
	batch := append(append([]uint64{}, keys[512:768]...), keys[:128]...)
	batch = append(batch, keys[512:576]...)
	changed, err := d.InsertBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 256 {
		t.Errorf("InsertBatch changed %d, want 256", changed)
	}
	if d.Len() != 768 {
		t.Errorf("Len = %d after batch insert, want 768", d.Len())
	}
	// 128 members + 128 non-members + 64 in-batch duplicates.
	del := append(append([]uint64{}, keys[128:256]...), keys[768:896]...)
	del = append(del, keys[128:192]...)
	changed, err = d.DeleteBatch(del)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 128 {
		t.Errorf("DeleteBatch changed %d, want 128", changed)
	}
	d.Quiesce()
	if d.Len() != 640 {
		t.Errorf("Len = %d after batch delete, want 640", d.Len())
	}
	src := rng.New(115)
	out := make([]bool, len(keys))
	if err := d.ContainsBatch(keys, out, src); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		want := (i < 128) || (i >= 256 && i < 768)
		if out[i] != want {
			t.Fatalf("Contains(%d) = %v, want %v", k, out[i], want)
		}
	}
	// An empty batch is a no-op on every shard.
	if changed, err := d.InsertBatch(nil); err != nil || changed != 0 {
		t.Errorf("empty InsertBatch: changed=%d err=%v", changed, err)
	}
	// A key outside the universe fails its group, after every earlier key
	// of it; the count still covers the keys that changed the set.
	bad := append(append([]uint64{}, keys[896:960]...), hash.MaxKey)
	if changed, err := d.InsertBatch(bad); err == nil || changed != 64 {
		t.Errorf("InsertBatch with a key outside the universe: changed=%d err=%v, want 64 and an error", changed, err)
	}
}
