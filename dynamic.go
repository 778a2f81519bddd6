package lcds

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
)

// DynamicDict is a mutable low-contention dictionary — the paper's §4
// future-work direction, built as global rebuilding over the static
// structure with a small replicated update buffer. Reads keep the static
// contention guarantee up to a constant; updates concentrate on the buffer,
// which is the inherent cost the paper conjectures (see internal/dynamic
// and experiment X1).
//
// All methods are safe for concurrent use. Contains and Len are lock-free:
// they load the current epoch — an immutable (static snapshot, update
// buffer) pair published through an atomic pointer — and probe it without
// writing any shared cache line. Insert and Delete are lock-free on the
// fast path too: writers claim buffer slots directly with CAS (one packed
// slot word per key and epoch, reused for every write of that key), so
// update throughput scales with writer goroutines; the internal mutex is
// taken only to coordinate epoch transitions. The ε·n global rebuild runs
// in a background goroutine while the old epoch stays readable, so readers
// never stall behind it; writers racing a rebuild either land in a
// mutex-serialized delta log that is replayed before the epoch swap, or
// retry against the freshly published epoch.
type DynamicDict struct {
	inner   *dynamic.Dict      // unsharded (nil when sharded)
	sharded *shard.DynamicDict // P-way composite (nil when unsharded)
	src     rng.Source
	// tel is the live telemetry layer, nil unless WithTelemetry was used.
	// Dynamic telemetry is cell-agnostic (tables are replaced on rebuild):
	// probe/step counters, latency histograms and per-shard rebuild metrics,
	// but no per-cell Φ̂ vector.
	tel *telemetry.Telemetry
	// events is the flight recorder the rebuild lifecycle emits into:
	// WithEventLog's log, or the telemetry layer's always-on log when only
	// WithTelemetry was used. Never consulted on the query path.
	events  *events.Log
	scratch sync.Pool // *core.QueryScratch for traced queries
}

// NewDynamic builds a dynamic dictionary over the initial keys. bufferFrac
// is the paper-style ε ∈ (0, 1]: a global rebuild triggers after ε·n
// buffered updates (pass 0 for the default 0.25).
//
// With WithShards(p ≥ 2), each of the p shards keeps its own update buffer,
// epoch snapshot and background rebuild: an update storm concentrated on
// one shard rebuilds ε·(n/p) keys on that shard alone while the other
// shards' snapshots stay untouched.
func NewDynamic(initial []uint64, bufferFrac float64, opts ...Option) (*DynamicDict, error) {
	cfg := opterr{o: options{seed: 1}}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	params := dynamic.Params{
		Epsilon: bufferFrac,
		Static:  cfg.o.params,
	}
	elog := cfg.o.newEventLog()
	var tel *telemetry.Telemetry
	if cfg.o.telem != nil {
		// Cell-agnostic mode: the dynamic tables are replaced on every
		// rebuild, so there is no stable per-cell index space to count in.
		tc := *cfg.o.telem
		tc.Events = elog
		tel = telemetry.New(tc, 0, len(initial))
		params.Sink = tel
		elog = tel.Events() // always-on log when none was configured
	}
	d := &DynamicDict{src: cfg.o.querySource(), tel: tel, events: elog}
	d.scratch.New = func() any { return new(core.QueryScratch) }
	if cfg.o.shards > 1 {
		// Each shard gets its own metrics slot, because shards rebuild
		// independently. All shards share one flight recorder; the shard
		// hook labels their events with the shard index.
		configure := func(i int, sp *dynamic.Params) {
			if tel != nil {
				sp.Metrics = tel.DynamicShard(i)
			}
			sp.Events = elog
		}
		sharded, err := shard.NewDynamicWithHooks(initial, cfg.o.shards, params, cfg.o.seed, configure)
		if err != nil {
			return nil, err
		}
		d.sharded = sharded
		return d, nil
	}
	if tel != nil {
		params.Metrics = tel.DynamicShard(0)
	}
	params.Events = elog
	inner, err := dynamic.New(initial, params, cfg.o.seed)
	if err != nil {
		return nil, err
	}
	d.inner = inner
	return d, nil
}

// Contains reports membership of x. It acquires no lock and runs
// concurrently with updates and rebuilds.
func (d *DynamicDict) Contains(x uint64) (bool, error) {
	if d.tel != nil {
		return d.containsTelemetry(x)
	}
	if d.sharded != nil {
		return d.sharded.Contains(x, d.src)
	}
	return d.inner.Contains(x, d.src)
}

// ContainsBatch answers membership for every keys[i] into out[i]. The
// whole batch is answered against one epoch snapshot loaded once up front,
// amortizing the epoch-pointer load and the query working memory across the
// batch; updates published mid-batch are not observed. out must be at least
// as long as keys. On a sharded dictionary the batch is grouped by shard,
// each group answered against a single snapshot of its own shard, the
// groups on concurrent goroutines (a source supplied via WithQuerySource
// must then be safe for concurrent use).
func (d *DynamicDict) ContainsBatch(keys []uint64, out []bool) error {
	if d.tel != nil {
		start := time.Now()
		err := d.containsBatch(keys, out)
		observeBatch(d.tel, out, len(keys), err, start)
		return err
	}
	return d.containsBatch(keys, out)
}

// containsBatch is the uninstrumented batch path.
func (d *DynamicDict) containsBatch(keys []uint64, out []bool) error {
	if d.sharded != nil {
		return d.sharded.ContainsBatchParallel(keys, out, d.src)
	}
	return d.inner.ContainsBatch(keys, out, d.src)
}

// Insert adds x; it reports whether the set changed. Any number of
// goroutines may call Insert, Delete and Contains concurrently: writers
// claim update-buffer slots with CAS and take no lock on the fast path.
func (d *DynamicDict) Insert(x uint64) (bool, error) {
	if d.sharded != nil {
		return d.sharded.Insert(x)
	}
	return d.inner.Insert(x)
}

// Delete removes x; it reports whether the set changed. Safe for any number
// of concurrent callers, like Insert.
func (d *DynamicDict) Delete(x uint64) (bool, error) {
	if d.sharded != nil {
		return d.sharded.Delete(x)
	}
	return d.inner.Delete(x)
}

// InsertBatch inserts every key and reports how many actually changed the
// set. On a sharded dictionary the batch is grouped by shard and the groups
// are applied on concurrent goroutines — the shard-parallel update fan-out
// mirroring ContainsBatch's read fan-out; unsharded, the keys are applied in
// order through the lock-free claim path.
func (d *DynamicDict) InsertBatch(keys []uint64) (int, error) {
	if d.sharded != nil {
		return d.sharded.InsertBatch(keys)
	}
	return d.applyBatch(keys, false)
}

// DeleteBatch deletes every key and reports how many actually changed the
// set, with the same shard-parallel fan-out as InsertBatch.
func (d *DynamicDict) DeleteBatch(keys []uint64) (int, error) {
	if d.sharded != nil {
		return d.sharded.DeleteBatch(keys)
	}
	return d.applyBatch(keys, true)
}

func (d *DynamicDict) applyBatch(keys []uint64, del bool) (int, error) {
	changed := 0
	for _, k := range keys {
		var ok bool
		var err error
		if del {
			ok, err = d.inner.Delete(k)
		} else {
			ok, err = d.inner.Insert(k)
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

// Len returns the current number of keys without taking a lock.
func (d *DynamicDict) Len() int {
	if d.sharded != nil {
		return d.sharded.Len()
	}
	return d.inner.Len()
}

// Shards returns the shard count: 1 unless WithShards(p ≥ 2) was used.
func (d *DynamicDict) Shards() int {
	if d.sharded != nil {
		return d.sharded.Shards()
	}
	return 1
}

// Rebuilds returns how many rebuilds have occurred (≥ 1 per shard; each
// shard's initial construction counts as its first). A rebuild in flight is
// counted once it publishes; call Quiesce first for a settled figure.
func (d *DynamicDict) Rebuilds() int {
	if d.sharded != nil {
		return d.sharded.Rebuilds()
	}
	return d.inner.Stats().Epoch
}

// Quiesce blocks until any background rebuild in flight has published its
// epoch. Useful before measuring or when deterministic rebuild counts
// matter; normal operation never requires it.
func (d *DynamicDict) Quiesce() {
	if d.sharded != nil {
		d.sharded.Quiesce()
		return
	}
	d.inner.Quiesce()
}

// DynamicStats is a point-in-time read of the dictionary's update-path
// behaviour, summed over shards. All sources are atomic or striped
// counters, so Stats is safe to call mid-storm; counts may trail in-flight
// operations by a few (Quiesce for settled figures).
type DynamicStats struct {
	Len             int    // current number of keys
	Epochs          int    // rebuilds published (≥ 1 per shard)
	Buffered        int    // live update-buffer entries across shards
	Updates         int    // Insert/Delete calls that changed membership
	ReadProbes      uint64 // probes issued by Contains/ContainsBatch (static probes counted at MaxProbes)
	WriteProbes     uint64 // probes + slot writes issued by the claim path
	WriteCASRetries uint64 // claim CASes lost to racing writers
}

// Stats reads the dictionary's dynamic statistics (summed over shards).
func (d *DynamicDict) Stats() DynamicStats {
	var st dynamicStats
	if d.sharded != nil {
		st = d.sharded.Stats()
	} else {
		st = d.inner.Stats()
	}
	return DynamicStats{
		Len:             st.Len,
		Epochs:          st.Epoch,
		Buffered:        st.Buffered,
		Updates:         st.Updates,
		ReadProbes:      st.ReadProbes,
		WriteProbes:     st.WriteProbes,
		WriteCASRetries: st.WriteCASRetries,
	}
}

// dynamicStats aliases the internal stats struct both branches return.
type dynamicStats = dynamic.Stats
