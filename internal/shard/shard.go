// Package shard scales any registered membership scheme out to P
// independent sub-dictionaries behind a top-level pairwise hash, preserving
// the cell-probe contention model exactly.
//
// The composite is itself a scheme.Scheme. A query probes one replica of
// the routing row (the routing hash stored redundantly across as many cells
// as the shards occupy, the paper's §1.3 replication trick — per-cell mass
// 1/R with R = Σ_i s_i, a constant ratio to optimum), routes to shard
// h(x) ∈ [P), and runs that shard's own query on its own cells. Because the
// shards occupy disjoint cell ranges and the routing splits the query
// distribution into per-shard conditional distributions, the composite's
// exact contention is the routing mass plus the maximum of the shards' own
// exact spectra — contention composes, which is the paper's point: Φ is a
// per-cell probe mass, so hash partitioning is a model-preserving scale-out.
// ComposeExact computes that composition analytically; the tests check it
// is bit-identical to running contention.Exact on the composite.
//
// ProbeSpec places each shard's steps in a disjoint step range
// (1 + Σ_{j<i} MaxProbes_j for shard i). Step placement is observationally
// irrelevant — shards touch disjoint cells, so no (step, cell) pair ever
// receives mass from two shards either way — but it keeps the per-step
// difference arrays of contention.Exact confined to one shard's cell range
// each, which is what makes the analytic composition reproduce the
// composite's floats bit for bit instead of merely up to rounding.
//
// DynamicDict partitions the mutable dictionary the same way. Set semantics
// are P-compositional — a history is linearizable iff each key's
// sub-history is — and every key lives in exactly one shard, so the
// composite is linearizable because each shard is. A cross-shard batch
// therefore needs no atomic snapshot: each answer need only linearize
// inside the batch call, which per-shard epoch pinning gives it. The
// concurrent tests record histories and check exactly that
// (internal/lincheck).
package shard

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/cellprobe"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hash"
	"repro/internal/rng"
	"repro/internal/scheme"
)

// routeSalt decorrelates the routing hash draw from the shard builds.
const routeSalt = 0x5ca1ab1e5ca1ab1e

// subseed derives shard i's build seed. Shard 0 keeps the caller's seed, so
// a 1-way composite builds the identical inner structure the unsharded
// builder would.
func subseed(seed uint64, i int) uint64 {
	return seed ^ (uint64(i) * 0x9e3779b97f4a7c15)
}

// Dict is a static P-way sharded composite dictionary.
type Dict struct {
	name    string
	shards  []scheme.Scheme
	cellOff []int // flat composite offset of each shard's cells
	stepOff []int // first composite probe step of each shard
	route   hash.Pairwise
	routeW  int // routing replicas (= total inner cells)
	acct    *cellprobe.Table
	n       int
	probes  int // 1 + max over shards of MaxProbes
	scratch sync.Pool
	batches sync.Pool // *batchState reused across batches
}

// New builds a P-way composite over the given keys, constructing every
// shard with the supplied builder. shards must be ≥ 1; the builder must
// accept an empty key slice (a shard may receive no keys).
func New(keys []uint64, shards int, build scheme.Builder, seed uint64) (*Dict, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be ≥ 1", shards)
	}
	if build == nil {
		return nil, fmt.Errorf("shard: nil builder")
	}
	if err := scheme.ValidateKeys(keys); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	route := hash.NewPairwise(rng.New(seed^routeSalt), uint64(shards))
	parts := make([][]uint64, shards)
	for _, k := range keys {
		i := int(route.Eval(k))
		parts[i] = append(parts[i], k)
	}
	d := &Dict{
		shards:  make([]scheme.Scheme, shards),
		cellOff: make([]int, shards),
		stepOff: make([]int, shards),
		route:   route,
		n:       len(keys),
	}
	d.scratch.New = func() any { return new(core.QueryScratch) }
	d.batches.New = newBatchState(shards, d.answerShard)
	total, steps, maxP := 0, 1, 0
	for i, part := range parts {
		st, err := build(part, subseed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, shards, err)
		}
		d.shards[i] = st
		d.stepOff[i] = steps
		steps += st.MaxProbes()
		total += st.Table().Size()
		if st.MaxProbes() > maxP {
			maxP = st.MaxProbes()
		}
	}
	d.routeW = total
	d.probes = 1 + maxP
	d.name = fmt.Sprintf("%s×%d", d.shards[0].Name(), shards)
	// The composite's accounting table: one row of routeW routing replicas
	// followed by the shards' cell ranges. The routing hash is stored
	// block-compactly (one value backing the whole row); the shard ranges
	// belong to the inner tables, whose probes are forwarded here.
	d.acct = cellprobe.New(1, d.routeW+total)
	d.acct.SetBlockRow(0, []cellprobe.Cell{{Lo: route.A, Hi: route.B}}, d.routeW+total)
	off := d.routeW
	for i, st := range d.shards {
		d.cellOff[i] = off
		st.Table().ForwardTo(d.acct, off, 1)
		off += st.Table().Size()
	}
	return d, nil
}

// NewNamed builds a P-way composite whose shards are the named registered
// scheme.
func NewNamed(keys []uint64, shards int, inner string, seed uint64) (*Dict, error) {
	info, ok := scheme.Lookup(inner)
	if !ok {
		return nil, fmt.Errorf("shard: unknown inner scheme %q", inner)
	}
	return New(keys, shards, info.Build, seed)
}

// Name identifies the composite, e.g. "lcds×8".
func (d *Dict) Name() string { return d.name }

// N returns the number of stored keys across all shards.
func (d *Dict) N() int { return d.n }

// Table returns the composite accounting table. Probes against any shard's
// own table are forwarded here, so recorders and traces attached to it see
// the full composite probe stream (routing probes at step 0, shard probes
// from step 1, at composite cell indices).
func (d *Dict) Table() *cellprobe.Table { return d.acct }

// MaxProbes bounds the probes of any single query: one routing probe plus
// the worst shard's bound.
func (d *Dict) MaxProbes() int { return d.probes }

// Shards returns the shard count P.
func (d *Dict) Shards() int { return len(d.shards) }

// Shard returns the i-th sub-dictionary.
func (d *Dict) Shard(i int) scheme.Scheme { return d.shards[i] }

// ShardOf returns the shard index the routing hash assigns to x.
func (d *Dict) ShardOf(x uint64) int { return int(d.route.Eval(x)) }

// CellOffset returns the flat composite index of shard i's first cell.
func (d *Dict) CellOffset(i int) int { return d.cellOff[i] }

// RouteWidth returns the number of routing replicas R.
func (d *Dict) RouteWidth() int { return d.routeW }

// FoldStepMass converts an exact step-mass vector from the composite
// ProbeSpec layout (a disjoint step range per shard) to the
// time-aligned layout live telemetry counters use: the routing probe is step
// 0 and every shard's step t lands at 1 + t, since only one shard executes
// per query. Per-cell masses need no conversion — shard cells only ever
// receive their own shard's steps — so only step-mass comparisons fold.
func (d *Dict) FoldStepMass(mass []float64) []float64 {
	maxP := 0
	for i := range d.shards {
		if mp := d.shards[i].MaxProbes(); mp > maxP {
			maxP = mp
		}
	}
	folded := make([]float64, 1+maxP)
	if len(mass) > 0 {
		folded[0] = mass[0] // routing step
	}
	for i := range d.shards {
		off := d.stepOff[i]
		for t := 0; t < d.shards[i].MaxProbes() && off+t < len(mass); t++ {
			folded[1+t] += mass[off+t]
		}
	}
	return folded
}

// routeProbe reads one uniformly chosen routing replica (step 0), counted
// in tally when it is non-nil, and returns the shard index it directs x to
// and the replica's column.
func (d *Dict) routeProbe(x uint64, r rng.Source, tally []uint64) (shard, col int) {
	col = r.Intn(d.routeW)
	c := d.acct.ProbeTo(0, 0, col, tally)
	h := hash.Pairwise{A: c.Lo, B: c.Hi, M: uint64(len(d.shards))}
	return int(h.Eval(x)), col
}

// Contains answers membership: one routing probe, then the owning shard's
// own query, on pooled scratch (the low-contention dictionary's
// zero-allocation path). The routing draw and the shard's replica choices
// come from one stream localised on that scratch (core.QueryScratch.Source).
func (d *Dict) Contains(x uint64, r rng.Source) (bool, error) {
	sc := d.scratch.Get().(*core.QueryScratch)
	found, _, err := d.ContainsTraced(x, sc.Source(r), sc)
	d.scratch.Put(sc)
	return found, err
}

// ContainsTraced is Contains with caller-supplied scratch, reporting which
// shard answered. It counts and captures in the composite's coordinates,
// the ones its ForwardTo links give a recorder or trace: the scratch's
// tally, if armed, takes the routing probe at step 0 and the shard's probes
// from step 1, and a capture armed with StartCapture logs the routing
// probe at step 0 and the shard's cells offset by CellOffset(shard) at
// steps +1. Inner schemes other than the low-contention dictionary answer
// normally but tally and capture only the routing probe.
func (d *Dict) ContainsTraced(x uint64, r rng.Source, sc *core.QueryScratch) (found bool, shard int, err error) {
	shard, col := d.routeProbe(x, r, sc.Tally())
	sc.CaptureProbe(0, col)
	if cd, ok := d.shards[shard].(*core.Dict); ok {
		sc.Nest(1, d.cellOff[shard])
		found, err = cd.ContainsScratch(x, r, sc)
		sc.Nest(0, 0)
		return found, shard, err
	}
	found, err = d.shards[shard].Contains(x, r)
	return found, shard, err
}

// group is one shard's slice of a batch: its keys, their positions in the
// batch, and room for their answers.
type group struct {
	keys []uint64
	idx  []int
	ans  []bool
}

// batchState is one batch's grouping by shard and the output and source
// its groups answer into and draw from. Both composites pool their states,
// so a batch reuses the slices of the ones before it; answer is bound to
// its state once, when the pool makes it, so a batch builds no closure.
type batchState struct {
	groups []group
	out    []bool
	r      rng.Source
	answer func(shard int, g group) (int, error)
}

// newBatchState returns the pool constructor of a composite whose
// answerShard answers one shard's keys into ans; a state's answer does that
// for a group and copies the answers into the batch's output.
func newBatchState(shards int, answerShard func(shard int, keys []uint64, ans []bool, r rng.Source) error) func() any {
	return func() any {
		st := &batchState{groups: make([]group, shards)}
		st.answer = func(shard int, g group) (int, error) {
			if err := answerShard(shard, g.keys, g.ans, st.r); err != nil {
				return 0, err
			}
			for j, i := range g.idx {
				st.out[i] = g.ans[j]
			}
			return 0, nil
		}
		return st
	}
}

// group groups a batch by the shard route assigns each key, calling route
// once per key in batch order, and sizes every group's answers.
func (st *batchState) group(keys []uint64, route func(uint64) int) {
	for g := range st.groups {
		st.groups[g].keys, st.groups[g].idx = st.groups[g].keys[:0], st.groups[g].idx[:0]
	}
	for i, k := range keys {
		g := &st.groups[route(k)]
		g.keys = append(g.keys, k)
		g.idx = append(g.idx, i)
	}
	for g := range st.groups {
		grp := &st.groups[g]
		grp.ans = slices.Grow(grp.ans[:0], len(grp.keys))[:len(grp.keys)]
	}
}

// answerAll answers every group into out through fanOut, drawing from r,
// and drops both references before the state goes back to its pool.
func (st *batchState) answerAll(out []bool, r rng.Source, parallel bool) error {
	st.out, st.r = out, r
	_, err := fanOut(st.groups, parallel, st.answer)
	st.out, st.r = nil, nil
	return err
}

// fanOut runs do on every non-empty group and sums the counts it returns.
// When parallel and more than one group is non-empty, each group runs on its
// own goroutine; otherwise the groups run in shard order on the caller's,
// stopping at the first error. The error returned is the first in shard
// order, and the count covers every group that ran, so a batch update
// reports the keys that changed the set even when a group failed.
func fanOut(groups []group, parallel bool, do func(shard int, g group) (int, error)) (int, error) {
	busy := 0
	for _, g := range groups {
		if len(g.keys) > 0 {
			busy++
		}
	}
	total := 0
	if !parallel || busy <= 1 {
		for shard, g := range groups {
			if len(g.keys) == 0 {
				continue
			}
			n, err := do(shard, g)
			total += n
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}
	counts := make([]int, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for shard, g := range groups {
		if len(g.keys) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard int, g group) {
			defer wg.Done()
			counts[shard], errs[shard] = do(shard, g)
		}(shard, g)
	}
	wg.Wait()
	var first error
	for shard := range groups {
		total += counts[shard]
		if first == nil {
			first = errs[shard]
		}
	}
	return total, first
}

// routeBatch takes a batch state from the pool and groups the batch in it
// by routing every key, consuming one routing probe per key exactly as
// Contains would.
func (d *Dict) routeBatch(keys []uint64, r rng.Source) *batchState {
	st := d.batches.Get().(*batchState)
	st.group(keys, func(k uint64) int {
		g, _ := d.routeProbe(k, r, nil)
		return g
	})
	return st
}

// answerShard answers one shard's keys into ans, batching through the
// inner dictionary's own batch path when it has one — for core dictionaries
// that is the wavefront scheduler, so a sharded batch gets memory-level
// parallelism within each shard on top of the cross-shard fan-out. The
// shard draws from r localised on its own pooled scratch, so concurrent
// groups may share one rng.Sharded r.
func (d *Dict) answerShard(shard int, keys []uint64, ans []bool, r rng.Source) error {
	sc := d.scratch.Get().(*core.QueryScratch)
	defer d.scratch.Put(sc)
	r = sc.Source(r)
	if cd, ok := d.shards[shard].(*core.Dict); ok {
		return cd.ContainsBatch(keys, ans, r, sc)
	}
	for j, k := range keys {
		ok, err := d.shards[shard].Contains(k, r)
		if err != nil {
			return err
		}
		ans[j] = ok
	}
	return nil
}

// ContainsBatch answers membership for every keys[i] into out[i],
// sequentially: the batch is routed up front, grouped by shard, and each
// group answered in shard order against that shard's batch path. out must
// be at least as long as keys. Routing and every group draw from one stream
// localised on a pooled scratch (core.QueryScratch.Source). The grouping
// lives in a pooled batch state, so a batch allocates nothing.
func (d *Dict) ContainsBatch(keys []uint64, out []bool, r rng.Source) error {
	sc := d.scratch.Get().(*core.QueryScratch)
	defer d.scratch.Put(sc)
	r = sc.Source(r)
	st := d.routeBatch(keys, r)
	defer d.batches.Put(st)
	return st.answerAll(out, r, false)
}

// ContainsBatchParallel is ContainsBatch with the per-shard groups answered
// by concurrent goroutines — the scale-out read path sharding exists for.
// The source must be safe for concurrent use (rng.Sharded is; an *rng.RNG
// is not) whenever the batch spans more than one shard. Routing draws from
// a stream localised on the calling goroutine; each group goroutine
// localises the shared r for itself (answerShard).
func (d *Dict) ContainsBatchParallel(keys []uint64, out []bool, r rng.Source) error {
	sc := d.scratch.Get().(*core.QueryScratch)
	st := d.routeBatch(keys, sc.Source(r))
	d.scratch.Put(sc)
	defer d.batches.Put(st)
	return st.answerAll(out, r, true)
}

// ProbeSpec returns the exact composite probe distribution for x: the
// uniform routing span at step 0, then the owning shard's own spec with
// cells offset into its range and steps offset into its disjoint step
// window.
func (d *Dict) ProbeSpec(x uint64) cellprobe.ProbeSpec {
	i := d.ShardOf(x)
	inner := d.shards[i].ProbeSpec(x)
	spec := make(cellprobe.ProbeSpec, d.stepOff[i], d.stepOff[i]+len(inner))
	spec[0] = cellprobe.UniformSpan(0, d.routeW, 1)
	for _, step := range inner {
		shifted := make(cellprobe.StepSpec, len(step))
		for k, sp := range step {
			sp.Start += d.cellOff[i]
			shifted[k] = sp
		}
		spec = append(spec, shifted)
	}
	return spec
}

// ComposeExact computes the composite's exact contention analytically from
// its parts: the routing step's per-cell mass plus, for each shard, the
// exact spectrum of that shard alone under the conditional support the
// routing sends it. It returns max_{t,j} Φ_t(j), the quantity whose product
// with the cell count is the headline RatioStep. Because the composite's
// steps are shard-disjoint, the result is bit-identical to
// contention.Exact(d, support).MaxStep — composition is exact in the model
// and in float64.
func (d *Dict) ComposeExact(support []dist.Weighted) (float64, error) {
	// Routing step: every query probes one of routeW replicas uniformly.
	// Same float operations, in the same support order, as the exact
	// analyzer's difference array for step 0.
	max := 0.0
	for _, w := range support {
		pc := cellprobe.Span{Start: 0, Count: d.routeW, Mass: 1}.PerCell() * w.P
		max += pc
	}
	subs := make([][]dist.Weighted, len(d.shards))
	for _, w := range support {
		i := d.ShardOf(w.Key)
		subs[i] = append(subs[i], w)
	}
	for i, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		res, err := contention.Exact(d.shards[i], sub)
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		if res.MaxStep > max {
			max = res.MaxStep
		}
	}
	return max, nil
}
