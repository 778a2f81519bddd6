// Package lcds is a low-contention static dictionary — a Go implementation
// of the membership data structure of Aspnes, Eisenstat and Yin,
// "Low-Contention Data Structures" (SPAA 2010).
//
// A dictionary built from n keys answers membership queries in O(1) cell
// probes using O(n) space, and — when queries are uniform over members (and
// uniform over non-members) — no memory cell is probed with probability more
// than O(1/n) at any step. Many concurrent readers therefore spread their
// accesses almost perfectly evenly across the structure's memory instead of
// converging on hash-parameter or index cells the way FKS, cuckoo hashing,
// or binary search do.
//
// The package is the public facade over internal/core (the Theorem 3
// construction), internal/baseline (the paper's §1.3 comparison
// structures), internal/contention (exact and Monte-Carlo contention
// analysis), internal/memsim (a hot-spot queueing simulator), and
// internal/lowerbound (the §3 Ω(log log n) machinery). The experiment
// harness reproducing every table and figure lives in internal/experiments
// and is driven by cmd/lcds-bench.
//
// Keys are uint64 values below MaxKey (= 2^61 − 1).
package lcds

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hash"
	"repro/internal/rng"
	"repro/internal/scheme"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
)

// MaxKey is the exclusive upper bound of the key universe.
const MaxKey = hash.MaxKey

// Dict is an immutable low-contention static dictionary. It is safe for
// concurrent use by multiple goroutines: each query or batch takes one draw
// from a sharded random source and its replica choices from a stream owned
// by its pooled scratch (see QuerySource), so concurrent readers write no
// shared cache line — the machine-level analogue of the paper's O(1/s)
// per-cell guarantee.
type Dict struct {
	inner   *core.Dict  // unsharded dictionary (nil when sharded)
	sharded *shard.Dict // P-way composite (nil when unsharded)
	seed    uint64
	src     rng.Source
	// tel is the live telemetry layer, nil unless WithTelemetry was used —
	// the query path's only telemetry cost when off is this one nil check.
	tel *telemetry.Telemetry
	// events is the flight recorder: WithEventLog's log, or the telemetry
	// layer's always-on log when only WithTelemetry was used. It is never
	// consulted on the query path — static dictionaries emit no structural
	// events of their own, so an event log costs queries nothing.
	events *events.Log
	// scratch pools per-query working memory (coefficient buffers,
	// histogram words) so the steady-state read path allocates nothing.
	scratch sync.Pool
}

// newDict wraps a built core dictionary with its query source and pool.
func newDict(inner *core.Dict, seed uint64, src rng.Source) *Dict {
	d := &Dict{inner: inner, seed: seed, src: src}
	d.scratch.New = func() any { return new(core.QueryScratch) }
	return d
}

// newShardDict wraps a built sharded composite with its query source and
// pool (the pool serves the telemetry layer's queries).
func newShardDict(sharded *shard.Dict, seed uint64, src rng.Source) *Dict {
	d := &Dict{sharded: sharded, seed: seed, src: src}
	d.scratch.New = func() any { return new(core.QueryScratch) }
	return d
}

// structure returns the scheme the dictionary queries — the core structure
// or the sharded composite.
func (d *Dict) structure() scheme.Scheme {
	if d.sharded != nil {
		return d.sharded
	}
	return d.inner
}

// QuerySource is the stream of uniform draws a query consumes for its
// replica choices. The default is a sharded splitmix64 source
// (rng.NewSharded) whose streams are padded to separate cache lines. A
// query or batch draws from it once, to seed a splitmix64 stream owned by
// the query's pooled scratch, and takes every replica choice from that
// stream (rng.Local). Supply your own via WithQuerySource — e.g. an
// *rng.RNG for bit-exact reproducible query traces; any source other than
// rng.Sharded is consumed draw for draw, one draw per replica choice.
type QuerySource = rng.Source

// options collects construction options.
type options struct {
	seed     uint64
	src      rng.Source
	params   core.Params
	shards   int
	telem    *telemetry.Config // nil: telemetry off
	eventlog bool              // WithEventLog: an explicit flight recorder
}

// Option configures New.
type Option func(*opterr)

type opterr struct {
	o   options
	err error
}

// WithSeed fixes the randomness of construction (and seeds the default
// query source), making the structure reproducible. The default seed is 1.
// Concurrent queries interleave the sharded source's streams in scheduling
// order; combine with WithQuerySource for bit-exact query traces.
func WithSeed(seed uint64) Option {
	return func(c *opterr) { c.o.seed = seed }
}

// WithQuerySource replaces the default sharded query source. A source other
// than rng.Sharded supplies every replica choice queries make, draw for
// draw; it must be safe for as many concurrent callers as the dictionary
// has (an *rng.RNG is single-goroutine only, an rng.Sharded is safe for any
// number).
func WithQuerySource(src QuerySource) Option {
	return func(c *opterr) {
		if src == nil {
			c.err = fmt.Errorf("lcds: nil query source")
			return
		}
		c.o.src = src
	}
}

// WithSpace sets the space factor β ≥ 2 (buckets per key; the paper's
// s = βn). Larger β lowers contention constants at the cost of memory.
func WithSpace(beta float64) Option {
	return func(c *opterr) {
		if beta < 2 {
			c.err = fmt.Errorf("lcds: space factor %v must be ≥ 2", beta)
			return
		}
		c.o.params.Beta = beta
	}
}

// WithIndependence sets the hash-family independence degree d > 2.
func WithIndependence(d int) Option {
	return func(c *opterr) {
		if d <= 2 {
			c.err = fmt.Errorf("lcds: independence degree %d must be > 2", d)
			return
		}
		c.o.params.D = d
	}
}

// WithSlack sets the load-slack constant c > e of property P(S).
func WithSlack(slack float64) Option {
	return func(c *opterr) { c.o.params.C = slack }
}

// WithShards hash-partitions the dictionary over p independent
// sub-dictionaries behind a replicated routing row (internal/shard). Reads
// stay low-contention — the composite's exact contention is the analytic
// composition of its shards' (experiment A7) — while batch queries fan out
// over the shards and, for dynamic dictionaries, each shard rebuilds
// independently. p = 1 is the unsharded structure itself: New builds the
// identical dictionary it builds without the option, answer for answer and
// probe for probe. NewDynamic always builds the shard composite, with one
// shard unless this option says otherwise; at one shard it is the single
// dynamic dictionary of the same seed, and its batches skip the grouping.
//
// ContainsBatch with more than one shard answers per-shard groups on
// concurrent goroutines, so a source supplied via WithQuerySource must then
// be safe for concurrent use (the default source is; an *rng.RNG is not).
func WithShards(p int) Option {
	return func(c *opterr) {
		if p < 1 {
			c.err = fmt.Errorf("lcds: shard count %d must be ≥ 1", p)
			return
		}
		c.o.shards = p
	}
}

// WithBatchGroup sets the wavefront width G ∈ [1, 64] of the batch query
// path: ContainsBatch keeps up to G queries in flight, each evaluating the
// probe stage it software-prefetched on the previous round, so the dependent
// cache misses of G independent probe chains overlap instead of serializing.
// The default (8) suits current cores; 1 degenerates to query-at-a-time.
// Answers and per-query probe cells are identical for every G — the paper's
// probe distributions, and therefore every contention bound, are unchanged —
// only throughput and the probe interleaving across a batch differ.
func WithBatchGroup(g int) Option {
	return func(c *opterr) {
		if g < 1 || g > 64 {
			c.err = fmt.Errorf("lcds: batch group %d outside [1, 64]", g)
			return
		}
		c.o.params.BatchGroup = g
	}
}

// New builds a dictionary over the given distinct keys (each < MaxKey).
// Construction takes expected O(n) time; the keys slice is not retained.
func New(keys []uint64, opts ...Option) (*Dict, error) {
	cfg := opterr{o: options{seed: 1}}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if cfg.o.shards > 1 {
		params := cfg.o.params
		sharded, err := shard.New(keys, cfg.o.shards, func(part []uint64, seed uint64) (scheme.Scheme, error) {
			inner, err := core.Build(part, params, seed)
			if err != nil {
				return nil, err
			}
			return inner, nil
		}, cfg.o.seed)
		if err != nil {
			return nil, err
		}
		d := newShardDict(sharded, cfg.o.seed, cfg.o.querySource())
		d.finishOptions(cfg.o)
		return d, nil
	}
	inner, err := core.Build(keys, cfg.o.params, cfg.o.seed)
	if err != nil {
		return nil, err
	}
	d := newDict(inner, cfg.o.seed, cfg.o.querySource())
	d.finishOptions(cfg.o)
	return d, nil
}

// finishOptions attaches the optional observability layers — telemetry and
// the flight recorder — to a freshly constructed dictionary, before it is
// shared (so no installation races a query).
func (d *Dict) finishOptions(o options) {
	elog := o.newEventLog()
	if o.telem != nil {
		tc := *o.telem
		tc.Events = elog
		d.installTelemetry(tc)
		elog = d.tel.Events()
	}
	d.events = elog
}

// newEventLog creates the explicitly requested flight recorder, or nil.
func (o options) newEventLog() *events.Log {
	if !o.eventlog {
		return nil
	}
	return events.NewLog()
}

// querySource resolves the configured query source, defaulting to a
// sharded splitmix64 source derived from the seed.
func (o options) querySource() rng.Source {
	if o.src != nil {
		return o.src
	}
	return rng.NewSharded(o.seed^0x9e3779b97f4a7c15, 0)
}

// Contains reports whether x is in the dictionary. It panics only if the
// underlying table is corrupt; use Lookup to receive that as an error.
func (d *Dict) Contains(x uint64) bool {
	ok, err := d.Lookup(x)
	if err != nil {
		panic(err)
	}
	return ok
}

// Lookup reports membership and surfaces table corruption as an error — and
// only table corruption (failure injection, bit flips): on a well-formed
// table the error is always nil and the answer exact. It acquires no lock,
// writes no shared memory beyond one draw on the query source's
// cache-line-private shard (the replica choices come from the pooled
// scratch's own stream), and performs no steady-state heap allocation
// (query working memory comes from an internal pool).
func (d *Dict) Lookup(x uint64) (bool, error) {
	if d.tel != nil {
		return d.lookupTelemetry(x)
	}
	if d.sharded != nil {
		return d.sharded.Contains(x, d.src)
	}
	sc := d.scratch.Get().(*core.QueryScratch)
	ok, err := d.inner.ContainsScratch(x, d.src, sc)
	d.scratch.Put(sc)
	return ok, err
}

// ContainsBatch answers membership for every keys[i] into out[i], reusing
// one pooled scratch across the whole batch — the cheapest way to issue
// many queries from one goroutine. out must be at least as long as keys.
// It stops at the first corrupt-table error; on a well-formed table it
// never errors. On a sharded dictionary the batch is grouped by shard and
// the groups are answered concurrently (see WithShards).
func (d *Dict) ContainsBatch(keys []uint64, out []bool) error {
	if d.tel != nil {
		start := time.Now()
		err := d.containsBatchTelemetry(keys, out)
		observeBatch(d.tel, out, len(keys), err, start)
		return err
	}
	if d.sharded != nil {
		return d.sharded.ContainsBatchParallel(keys, out, d.src)
	}
	sc := d.scratch.Get().(*core.QueryScratch)
	defer d.scratch.Put(sc)
	return d.inner.ContainsBatch(keys, out, d.src, sc)
}

// Len returns the number of stored keys.
func (d *Dict) Len() int { return d.structure().N() }

// SpaceCells returns the total number of 128-bit cells the table occupies.
func (d *Dict) SpaceCells() int { return d.structure().Table().Size() }

// MaxProbes returns the worst-case number of cell probes per query.
func (d *Dict) MaxProbes() int { return d.structure().MaxProbes() }

// Shards returns the shard count: 1 unless WithShards(p ≥ 2) was used.
func (d *Dict) Shards() int {
	if d.sharded != nil {
		return d.sharded.Shards()
	}
	return 1
}

// Stats describes what construction did. For a sharded dictionary the
// counts are summed over the shards (MaxBucketLoad and SlackC take the
// worst shard) and Cells is the composite table size, routing row included.
type Stats struct {
	N             int     // stored keys
	Cells         int     // table cells (128-bit words)
	Rows          int     // table rows (each of width s)
	Shards        int     // sub-dictionaries (1 unless WithShards)
	Buckets       int     // the paper's s
	Groups        int     // the paper's m
	HashTries     int     // (f,g,z) draws until property P(S) held
	Escalations   int     // slack escalations (0 in the normal regime)
	MaxBucketLoad int     // largest bucket
	SlackC        float64 // the c in force when P(S) held
}

// Stats returns construction statistics.
func (d *Dict) Stats() Stats {
	if d.sharded != nil {
		out := Stats{
			N:      d.sharded.N(),
			Cells:  d.sharded.Table().Size(),
			Shards: d.sharded.Shards(),
		}
		for i := 0; i < d.sharded.Shards(); i++ {
			r := d.sharded.Shard(i).(*core.Dict).Report()
			out.Rows += r.Rows
			out.Buckets += r.S
			out.Groups += r.M
			out.HashTries += r.HashTries
			out.Escalations += r.Escalations
			if r.MaxBucketLoad > out.MaxBucketLoad {
				out.MaxBucketLoad = r.MaxBucketLoad
			}
			if r.FinalC > out.SlackC {
				out.SlackC = r.FinalC
			}
		}
		return out
	}
	r := d.inner.Report()
	return Stats{
		N: r.N, Cells: r.Cells, Rows: r.Rows, Shards: 1, Buckets: r.S, Groups: r.M,
		HashTries: r.HashTries, Escalations: r.Escalations,
		MaxBucketLoad: r.MaxBucketLoad, SlackC: r.FinalC,
	}
}

// WeightedKey is one support point of a caller-described query
// distribution: key Key queried with probability (or unnormalized weight) P.
// The weighted contention and telemetry entry points — ContentionSummary-
// Weighted, TelemetryCompareExactWeighted — normalize the weights and merge
// duplicate keys, so any non-negative finite weighting with positive total
// mass is accepted.
type WeightedKey struct {
	Key uint64
	P   float64
}

// Contention summarizes the dictionary's exact contention under uniform
// queries over a caller-chosen key set (the paper's uniform-positive
// distribution when that set is the stored keys).
type Contention struct {
	// RatioStep is max_{t,j} Φ_t(j) · s — the per-step contention as a
	// multiple of the unachievable optimum 1/s. Theorem 3 keeps it O(1).
	RatioStep float64
	// RatioTotal is max_j Σ_t Φ_t(j) · s.
	RatioTotal float64
	// Probes is the expected number of cell probes per query.
	Probes float64
}

// Explain runs one membership query, writing a step-by-step account of
// every cell probe to w — which row, which replica, what was learned.
// Useful for understanding the four-phase query algorithm. Explain
// installs a table trace and must not run concurrently with queries.
func (d *Dict) Explain(x uint64, w io.Writer) (bool, error) {
	if d.sharded != nil {
		i := d.sharded.ShardOf(x)
		fmt.Fprintf(w, "route: x = %d → shard %d of %d (one probe of the %d-replica routing row)\n",
			x, i, d.sharded.Shards(), d.sharded.RouteWidth())
		return d.sharded.Shard(i).(*core.Dict).Explain(x, d.src, w)
	}
	return d.inner.Explain(x, d.src, w)
}

// WriteTo serializes the dictionary in a compact format (the construction
// state, ≈ 3 words per key, rather than the full table). It implements
// io.WriterTo. Sharded dictionaries do not support serialization.
func (d *Dict) WriteTo(w io.Writer) (int64, error) {
	if d.sharded != nil {
		return 0, fmt.Errorf("lcds: sharded dictionaries do not support serialization")
	}
	return d.inner.WriteTo(w)
}

// Read deserializes a dictionary written by WriteTo, reconstructing and
// verifying its table. The query seed of the returned dictionary defaults
// to 1; pass WithSeed to change it.
func Read(r io.Reader, opts ...Option) (*Dict, error) {
	cfg := opterr{o: options{seed: 1}}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	inner, err := core.Read(r)
	if err != nil {
		return nil, err
	}
	// The wire format carries no query-side tuning; apply it post-read.
	inner.SetBatchGroup(cfg.o.params.BatchGroup)
	d := newDict(inner, cfg.o.seed, cfg.o.querySource())
	d.finishOptions(cfg.o)
	return d, nil
}

// ContentionSummary computes the exact contention under uniform queries
// over the caller-supplied keys — pass the stored key set for the paper's
// uniform-positive distribution, or any other support of interest. It
// returns an error for an empty key set (the uniform distribution over it
// is undefined).
func (d *Dict) ContentionSummary(keys []uint64) (Contention, error) {
	if len(keys) == 0 {
		return Contention{}, fmt.Errorf("lcds: contention summary needs a non-empty key set")
	}
	q := dist.NewUniformSet(keys, "")
	res, err := contention.Exact(d.structure(), q.Support())
	if err != nil {
		return Contention{}, err
	}
	return Contention{
		RatioStep:  res.RatioStep(),
		RatioTotal: res.RatioTotal(),
		Probes:     res.Probes,
	}, nil
}

// ContentionSummaryWeighted computes the exact contention under an arbitrary
// query distribution given as a weighted support — the quantity the paper
// bounds for every q, and the prediction the skew-aware telemetry comparison
// (TelemetryCompareExactWeighted) checks the live counters against. Weights
// are normalized and duplicate keys merged.
func (d *Dict) ContentionSummaryWeighted(support []WeightedKey) (Contention, error) {
	res, err := exactWeighted(d.structure(), support)
	if err != nil {
		return Contention{}, err
	}
	return Contention{
		RatioStep:  res.RatioStep(),
		RatioTotal: res.RatioTotal(),
		Probes:     res.Probes,
	}, nil
}
