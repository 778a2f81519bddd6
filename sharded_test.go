package lcds

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/rng"
	"repro/internal/telemetry/events"
)

func negKeys(keys []uint64, n int, seed uint64) []uint64 {
	members := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		members[k] = true
	}
	r := rng.New(seed)
	out := make([]uint64, 0, n)
	for len(out) < n {
		k := r.Uint64n(MaxKey)
		if !members[k] {
			out = append(out, k)
		}
	}
	return out
}

// TestWithShardsOneIsIdentity is an acceptance criterion: WithShards(1) is
// behaviorally identical to the plain facade on a fixed seed — same answers,
// same probe counts, same table — and a DynamicDict, which is always a shard
// composite, is at one shard the single dynamic dictionary.
func TestWithShardsOneIsIdentity(t *testing.T) {
	keys := testKeys(800, 120)
	plain, err := New(keys, WithSeed(121))
	if err != nil {
		t.Fatal(err)
	}
	one, err := New(keys, WithSeed(121), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if one.Shards() != 1 {
		t.Fatalf("Shards() = %d", one.Shards())
	}
	if plain.Len() != one.Len() || plain.SpaceCells() != one.SpaceCells() || plain.MaxProbes() != one.MaxProbes() {
		t.Fatalf("shape differs: len %d/%d cells %d/%d probes %d/%d",
			plain.Len(), one.Len(), plain.SpaceCells(), one.SpaceCells(), plain.MaxProbes(), one.MaxProbes())
	}
	if plain.Stats() != one.Stats() {
		t.Fatalf("stats differ:\n%+v\n%+v", plain.Stats(), one.Stats())
	}
	queries := append(append([]uint64(nil), keys...), negKeys(keys, 400, 122)...)
	for _, k := range queries {
		if plain.Contains(k) != one.Contains(k) {
			t.Fatalf("answers differ for %d", k)
		}
	}
	ca, err := plain.ContentionSummary(keys)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := one.ContentionSummary(keys)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Fatalf("contention differs: %+v vs %+v", ca, cb)
	}

	// The dynamic half: a DynamicDict is a 1-shard composite unless
	// WithShards says otherwise, and that composite is the single dynamic
	// dictionary with the same seed — write for write, answer for answer,
	// probe for probe, event for event.
	const eps = 0.25
	dyn, err := NewDynamic(keys, eps, WithSeed(121), WithQuerySource(rng.New(123)), WithEventLog())
	if err != nil {
		t.Fatal(err)
	}
	singleLog := events.NewLog()
	single, err := dynamic.New(keys, dynamic.Params{Epsilon: eps, Events: singleLog}, 121)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(123)
	fresh := negKeys(keys, int(eps*float64(len(keys)))+50, 124)
	write := func(k uint64, del bool) {
		var a, b bool
		var errA, errB error
		if del {
			a, errA = dyn.Delete(k)
			b, errB = single.Delete(k)
		} else {
			a, errA = dyn.Insert(k)
			b, errB = single.Insert(k)
		}
		if a != b || errA != nil || errB != nil {
			t.Fatalf("write %d (del %v): facade %v %v, single %v %v", k, del, a, errA, b, errB)
		}
		// Settle each write's rebuild, so both see the same epoch sequence.
		dyn.Quiesce()
		single.Quiesce()
	}
	for _, k := range fresh {
		write(k, false)
	}
	for _, k := range keys[:100] {
		write(k, true)
	}
	queries = append(append(queries, fresh...), keys[:100]...)
	for _, k := range queries {
		a, errA := dyn.Contains(k)
		b, errB := single.Contains(k, src)
		if a != b || errA != nil || errB != nil {
			t.Fatalf("answers differ for %d: facade %v %v, single %v %v", k, a, errA, b, errB)
		}
	}
	got, want := make([]bool, len(queries)), make([]bool, len(queries))
	if err := dyn.ContainsBatch(queries, got); err != nil {
		t.Fatal(err)
	}
	if err := single.ContainsBatch(queries, want, src); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if got[i] != want[i] {
			t.Fatalf("batch answers differ for %d", queries[i])
		}
	}
	ds, ss := dyn.Stats(), single.Stats()
	if ss.Epoch < 2 {
		t.Fatalf("writes forced no rebuild (epoch %d)", ss.Epoch)
	}
	if ds.ReadProbes != ss.ReadProbes || ds.WriteProbes != ss.WriteProbes || ds.Epochs != ss.Epoch {
		t.Fatalf("stats differ: facade %+v, single %+v", ds, ss)
	}
	ea, _ := dyn.Timeline(0, 1<<20)
	eb, _ := singleLog.Timeline(0, 1<<20)
	if len(ea) != len(eb) {
		t.Fatalf("facade recorded %d events, single %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Type != eb[i].Type || ea[i].Shard != eb[i].Shard {
			t.Fatalf("event %d: facade %v on shard %d, single %v on shard %d", i, ea[i].Type, ea[i].Shard, eb[i].Type, eb[i].Shard)
		}
		if ea[i].Type == EventShardRebuild {
			t.Fatalf("event %d: a 1-shard composite emitted ShardRebuild", i)
		}
	}
}

func TestShardedDict(t *testing.T) {
	keys := testKeys(1500, 130)
	d, err := New(keys, WithSeed(131), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	if d.Shards() != 8 {
		t.Fatalf("Shards() = %d", d.Shards())
	}
	if d.Len() != len(keys) {
		t.Fatalf("Len() = %d", d.Len())
	}
	if d.SpaceCells() <= 0 || d.MaxProbes() <= 0 {
		t.Fatalf("SpaceCells=%d MaxProbes=%d", d.SpaceCells(), d.MaxProbes())
	}
	negs := negKeys(keys, 500, 132)
	for _, k := range keys {
		if !d.Contains(k) {
			t.Fatalf("member %d lost", k)
		}
	}
	for _, k := range negs {
		if d.Contains(k) {
			t.Fatalf("non-member %d found", k)
		}
	}
	queries := append(append([]uint64(nil), keys[:400]...), negs[:400]...)
	out := make([]bool, len(queries))
	if err := d.ContainsBatch(queries, out); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if out[i] != (i < 400) {
			t.Fatalf("batch answer %d for key %d, want %v", i, queries[i], i < 400)
		}
	}

	st := d.Stats()
	if st.Shards != 8 || st.N != len(keys) || st.Cells != d.SpaceCells() {
		t.Fatalf("stats %+v", st)
	}
	if st.Buckets == 0 || st.Groups == 0 || st.HashTries < 8 || st.MaxBucketLoad == 0 || st.SlackC == 0 {
		t.Fatalf("sharded stats not aggregated: %+v", st)
	}

	c, err := d.ContentionSummary(keys)
	if err != nil {
		t.Fatal(err)
	}
	// Composite ratioStep stays O(1): routing contributes exactly 2 and the
	// shards' per-step mass is diluted by the composite cell count.
	if c.RatioStep <= 0 || c.RatioStep > 500 {
		t.Fatalf("sharded ratioStep = %v", c.RatioStep)
	}
	if c.Probes <= 1 {
		t.Fatalf("probes/query = %v, want > 1 (routing probe + inner query)", c.Probes)
	}
}

func TestShardedOptionErrors(t *testing.T) {
	if _, err := New(testKeys(16, 1), WithShards(0)); err == nil {
		t.Fatal("WithShards(0) accepted")
	}
	if _, err := New(testKeys(16, 1), WithShards(-3)); err == nil {
		t.Fatal("WithShards(-3) accepted")
	}
	if _, err := NewDynamic(testKeys(16, 1), 0, WithShards(0)); err == nil {
		t.Fatal("NewDynamic WithShards(0) accepted")
	}
}

func TestShardedWriteToUnsupported(t *testing.T) {
	d, err := New(testKeys(64, 140), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err == nil {
		t.Fatal("WriteTo on a sharded dictionary did not error")
	}
}

func TestShardedExplain(t *testing.T) {
	keys := testKeys(256, 150)
	d, err := New(keys, WithSeed(151), WithShards(4), WithQuerySource(rng.New(152)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ok, err := d.Explain(keys[0], &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("Explain answered false for member %d", keys[0])
	}
	if !strings.Contains(buf.String(), "route:") {
		t.Fatalf("Explain output lacks the routing line:\n%s", buf.String())
	}
}

func TestShardedDynamicFacade(t *testing.T) {
	keys := testKeys(1200, 160)
	d, err := NewDynamic(keys, 0, WithSeed(161), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if d.Shards() != 4 {
		t.Fatalf("Shards() = %d", d.Shards())
	}
	if d.Len() != len(keys) {
		t.Fatalf("Len() = %d", d.Len())
	}
	if d.Rebuilds() < 4 {
		t.Fatalf("Rebuilds() = %d, want ≥ 1 per shard", d.Rebuilds())
	}
	extra := negKeys(keys, 300, 162)
	for _, k := range extra {
		if changed, err := d.Insert(k); err != nil || !changed {
			t.Fatalf("Insert(%d): %v %v", k, changed, err)
		}
	}
	for _, k := range keys[:200] {
		if changed, err := d.Delete(k); err != nil || !changed {
			t.Fatalf("Delete(%d): %v %v", k, changed, err)
		}
	}
	d.Quiesce()
	if got, want := d.Len(), len(keys)+len(extra)-200; got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	queries := append(append([]uint64(nil), keys...), extra...)
	out := make([]bool, len(queries))
	if err := d.ContainsBatch(queries, out); err != nil {
		t.Fatal(err)
	}
	for i, k := range queries {
		want := i >= 200
		if out[i] != want {
			t.Fatalf("batch answer for %d = %v, want %v", k, out[i], want)
		}
		ok, err := d.Contains(k)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want {
			t.Fatalf("Contains(%d) = %v, want %v", k, ok, want)
		}
	}
}
