package shard

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/hash"
	"repro/internal/rng"
	"repro/internal/scheme"
)

// DynamicDict is a P-way sharded mutable dictionary: one internal/dynamic
// epoch-snapshot dictionary per shard behind the same top-level routing
// hash the static composite uses. Each shard keeps its own update buffer,
// epoch pointer and background rebuild, so an insert storm concentrated on
// one shard rebuilds ε·(n/P) keys on that shard alone — the other P−1
// shards' snapshots stay untouched and their readers never even observe an
// epoch change.
//
// Routing is pure arithmetic on the immutable hash (no shared memory), so
// every concurrency property of the single dictionary — lock-free reads,
// lock-free CAS claim-slot updates — holds per shard and therefore for the
// composite: any number of goroutines may Insert, Delete and Contains
// concurrently. Unlike the static Dict, the dynamic composite is not a
// scheme.Scheme: probe accounting lives inside each shard (see
// dynamic.Dict.Stats).
type DynamicDict struct {
	route  hash.Pairwise
	shards []*dynamic.Dict
}

// NewDynamic builds a P-way sharded dynamic dictionary over the initial
// keys. p configures every shard identically.
func NewDynamic(initial []uint64, shards int, p dynamic.Params, seed uint64) (*DynamicDict, error) {
	return NewDynamicWithMetrics(initial, shards, p, seed, nil)
}

// NewDynamicWithMetrics is NewDynamic with a per-shard metrics supplier:
// when metricsFor is non-nil, shard i is built with p.Metrics replaced by
// metricsFor(i), so each shard's rebuild telemetry lands in its own slot
// (the facade passes telemetry.Telemetry.DynamicShard).
func NewDynamicWithMetrics(initial []uint64, shards int, p dynamic.Params, seed uint64, metricsFor func(i int) dynamic.Metrics) (*DynamicDict, error) {
	var configure func(i int, sp *dynamic.Params)
	if metricsFor != nil {
		configure = func(i int, sp *dynamic.Params) { sp.Metrics = metricsFor(i) }
	}
	return NewDynamicWithHooks(initial, shards, p, seed, configure)
}

// NewDynamicWithHooks is NewDynamic with a per-shard parameter hook: when
// configure is non-nil it runs on a copy of p for each shard before the
// shard is built, so per-shard state such as metrics slots never crosses
// shard boundaries.
func NewDynamicWithHooks(initial []uint64, shards int, p dynamic.Params, seed uint64, configure func(i int, sp *dynamic.Params)) (*DynamicDict, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be ≥ 1", shards)
	}
	if err := scheme.ValidateKeys(initial); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	route := hash.NewPairwise(rng.New(seed^routeSalt), uint64(shards))
	parts := make([][]uint64, shards)
	for _, k := range initial {
		parts[route.Eval(k)] = append(parts[route.Eval(k)], k)
	}
	d := &DynamicDict{route: route, shards: make([]*dynamic.Dict, shards)}
	for i, part := range parts {
		sp := p
		if configure != nil {
			configure(i, &sp)
		}
		if sp.Events != nil {
			// Every shard emits into the one shared flight recorder, labeled
			// with its index; multi-shard composites additionally surface
			// each shard's published rebuilds as ShardRebuild events.
			sp.EventShard = i
			sp.ShardEvents = shards > 1
		}
		inner, err := dynamic.New(part, sp, subseed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, shards, err)
		}
		d.shards[i] = inner
	}
	return d, nil
}

// Shards returns the shard count P.
func (d *DynamicDict) Shards() int { return len(d.shards) }

// Shard returns the i-th sub-dictionary.
func (d *DynamicDict) Shard(i int) *dynamic.Dict { return d.shards[i] }

// ShardOf returns the shard index the routing hash assigns to x.
func (d *DynamicDict) ShardOf(x uint64) int { return int(d.route.Eval(x)) }

// Contains reports membership of x. Lock-free: it routes and probes one
// shard's current epoch.
func (d *DynamicDict) Contains(x uint64, r rng.Source) (bool, error) {
	return d.shards[d.ShardOf(x)].Contains(x, r)
}

// ContainsTraced is Contains with caller-supplied scratch, reporting which
// shard answered — the telemetry layer's traced-query entry point (arm the
// scratch with StartCapture first). Captured cell indices are local to the
// answering shard's current static snapshot.
func (d *DynamicDict) ContainsTraced(x uint64, r rng.Source, sc *core.QueryScratch) (bool, int, error) {
	i := d.ShardOf(x)
	ok, err := d.shards[i].ContainsScratch(x, r, sc)
	return ok, i, err
}

// Insert adds x, touching only its shard; it reports whether the set
// changed. Safe for any number of concurrent callers.
func (d *DynamicDict) Insert(x uint64) (bool, error) {
	return d.shards[d.ShardOf(x)].Insert(x)
}

// Delete removes x, touching only its shard; it reports whether the set
// changed. Safe for any number of concurrent callers.
func (d *DynamicDict) Delete(x uint64) (bool, error) {
	return d.shards[d.ShardOf(x)].Delete(x)
}

// InsertBatch inserts every key, fanning the batch out across shards — one
// goroutine per non-empty shard group, each group's keys applied in order by
// that shard's lock-free claim path. It returns how many keys actually
// changed the set. Groups touching distinct shards share no mutable memory
// at all; within a shard, concurrent claims coordinate by CAS.
func (d *DynamicDict) InsertBatch(keys []uint64) (int, error) {
	return d.updateBatch(keys, false)
}

// DeleteBatch deletes every key with the same shard-parallel fan-out as
// InsertBatch, returning how many keys actually changed the set.
func (d *DynamicDict) DeleteBatch(keys []uint64) (int, error) {
	return d.updateBatch(keys, true)
}

func (d *DynamicDict) updateBatch(keys []uint64, del bool) (int, error) {
	groups := d.groupBatch(keys)
	busy := 0
	for _, g := range groups {
		if len(g.keys) > 0 {
			busy++
		}
	}
	apply := func(shard int, g dynGroup) (int, error) {
		changed := 0
		for _, k := range g.keys {
			var ok bool
			var err error
			if del {
				ok, err = d.shards[shard].Delete(k)
			} else {
				ok, err = d.shards[shard].Insert(k)
			}
			if err != nil {
				return changed, err
			}
			if ok {
				changed++
			}
		}
		return changed, nil
	}
	if busy <= 1 {
		for shard, g := range groups {
			if len(g.keys) > 0 {
				return apply(shard, g)
			}
		}
		return 0, nil
	}
	changed := make([]int, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for shard, g := range groups {
		if len(g.keys) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard int, g dynGroup) {
			defer wg.Done()
			changed[shard], errs[shard] = apply(shard, g)
		}(shard, g)
	}
	wg.Wait()
	total := 0
	for shard := range groups {
		if errs[shard] != nil {
			return 0, errs[shard]
		}
		total += changed[shard]
	}
	return total, nil
}

// Len returns the current key count, summed over shards without locking.
func (d *DynamicDict) Len() int {
	n := 0
	for _, s := range d.shards {
		n += s.Len()
	}
	return n
}

// dynGroup is one shard's slice of a batch.
type dynGroup struct {
	keys []uint64
	idx  []int
}

func (d *DynamicDict) groupBatch(keys []uint64) []dynGroup {
	groups := make([]dynGroup, len(d.shards))
	for i, k := range keys {
		g := d.ShardOf(k)
		groups[g].keys = append(groups[g].keys, k)
		groups[g].idx = append(groups[g].idx, i)
	}
	return groups
}

func (d *DynamicDict) answerGroup(shard int, g dynGroup, out []bool, r rng.Source) error {
	if len(g.keys) == 0 {
		return nil
	}
	ans := make([]bool, len(g.keys))
	// dynamic.ContainsBatch pins one epoch for the whole group, so each
	// shard's slice of the batch is answered against a single snapshot.
	if err := d.shards[shard].ContainsBatch(g.keys, ans, r); err != nil {
		return err
	}
	for j, i := range g.idx {
		out[i] = ans[j]
	}
	return nil
}

// ContainsBatch answers membership for every keys[i] into out[i]. The batch
// is grouped by shard and each group is answered against a single epoch
// snapshot of its shard (loaded once per group); groups are answered
// sequentially. out must be at least as long as keys.
func (d *DynamicDict) ContainsBatch(keys []uint64, out []bool, r rng.Source) error {
	for shard, g := range d.groupBatch(keys) {
		if err := d.answerGroup(shard, g, out, r); err != nil {
			return err
		}
	}
	return nil
}

// ContainsBatchParallel is ContainsBatch with the per-shard groups answered
// concurrently, one goroutine per non-empty group. The source must be safe
// for concurrent use (rng.Sharded is) whenever the batch spans more than
// one shard.
func (d *DynamicDict) ContainsBatchParallel(keys []uint64, out []bool, r rng.Source) error {
	groups := d.groupBatch(keys)
	busy := 0
	for _, g := range groups {
		if len(g.keys) > 0 {
			busy++
		}
	}
	if busy <= 1 {
		for shard, g := range groups {
			if err := d.answerGroup(shard, g, out, r); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for shard, g := range groups {
		if len(g.keys) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard int, g dynGroup) {
			defer wg.Done()
			errs[shard] = d.answerGroup(shard, g, out, r)
		}(shard, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Rebuilds returns the total number of rebuilds across all shards (each
// shard's initial construction counts as its first).
func (d *DynamicDict) Rebuilds() int {
	total := 0
	for _, s := range d.shards {
		total += s.Stats().Epoch
	}
	return total
}

// Stats sums the dynamic statistics over all shards. Per-shard epoch
// detail (SnapshotN, BufferSlots, rebuild cells) is aggregated additively.
func (d *DynamicDict) Stats() dynamic.Stats {
	var total dynamic.Stats
	for _, s := range d.shards {
		st := s.Stats()
		total.Len += st.Len
		total.Epoch += st.Epoch
		total.SnapshotN += st.SnapshotN
		total.Buffered += st.Buffered
		total.BufferSlots += st.BufferSlots
		total.RebuildKeys += st.RebuildKeys
		total.Updates += st.Updates
		total.ReadProbes += st.ReadProbes
		total.WriteProbes += st.WriteProbes
		total.WriteCASRetries += st.WriteCASRetries
		total.RebuildCells += st.RebuildCells
		total.StaticHashTries += st.StaticHashTries
	}
	return total
}

// Quiesce blocks until every shard's in-flight rebuild has published.
func (d *DynamicDict) Quiesce() {
	for _, s := range d.shards {
		s.Quiesce()
	}
}
