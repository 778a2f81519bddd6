// Package dynamic extends the static low-contention dictionary to support
// insertions and deletions — the direction the paper's §4 names as future
// work ("study the contention caused by the updates in dynamic data
// structures").
//
// The design is global rebuilding over the Theorem 3 structure:
//
//   - a static core.Dict holds a snapshot S₀;
//   - a small open-addressing buffer (its own cell-probe table, with
//     replicated hash parameters) absorbs updates: inserted keys, and
//     tombstones for deleted snapshot keys;
//   - queries check the buffer (expected O(1) probes at the buffer's tiny
//     load factor), then fall through to the static structure;
//   - when the buffer holds ε·n entries the whole dictionary is rebuilt
//     from the current key set, giving amortized O(1/ε) work per update
//     on top of the static O(n) construction.
//
// # Concurrency model
//
// The pair (static snapshot, update buffer) forms an immutable *epoch*
// published through an atomic pointer — the RCU discipline of lock-free
// open-addressing tables (Gao–Groote–Hesselink). Readers load the current
// epoch and probe it without taking any lock: the static table is immutable
// and the buffer's slot words are single atomic loads.
//
// Writers are lock-free on the fast path. Each buffer slot is one packed
// (tag, key) word driven through a state machine by CAS — the claim-slot
// protocol of lock-free linear probing (Attiya–Oshman–Schiller). For a key x
// outside the snapshot, and for a snapshot key x, the slot's word moves as
//
//	empty ──CAS──▶ inserted(x) ◀──CAS──▶ vacated(x)
//	empty ──CAS──▶ deleted(x)  ◀──CAS──▶ vacated(x)
//
// Tombstones (deleted) mark snapshot keys as removed; vacated(x) means "x is
// as the snapshot says". A slot never becomes empty again and never changes
// key, so x holds at most one slot per epoch: the first slot of its chain
// that is empty or holds x. Every writer of x meets at that slot and its CAS
// serialises them; every later write of x reuses it, so churn on one key
// never lengthens a chain. The slot can cycle vacated(x) → inserted(x) →
// vacated(x), and a CAS may succeed against an equal word after writes in
// between, but that is harmless: the word plus the epoch's frozen snapshot
// set is all a write's decision depends on (see claim). Occupancy counts
// claimed slots, live or vacated; writers pre-reserve it before claiming an
// empty slot, so the buffer's load factor stays ≤ 1/2 without any lock.
// Vacated slots of other keys still lengthen the chains that run past them,
// which is why they keep counting toward the rebuild threshold.
//
// The writer mutex survives only to serialize epoch transitions: rebuild
// publication and delta-log replay. The hand-off is fenced by epoch-scoped
// writer accounting — a per-buffer writer count plus a sealed flag. A writer
// enters the buffer by incrementing the count and then checking sealed; the
// rebuilder seals the buffer and waits for the count to drain before
// scanning the slots for the snapshot. The seq-cst order of the two races
// (count-then-sealed vs sealed-then-count) guarantees every claimed slot is
// either observed by the snapshot scan or the claiming writer retreats to
// the mutex path, so no claimed slot is ever lost across a rebuild swap.
// Writers arriving while the buffer is sealed take the mutex: they apply to
// the still-published old buffer (readers must see their updates) and log
// the operation in a delta that is replayed into the fresh buffer before the
// new epoch is published. Writers that lose the epoch race simply retry
// against the freshly published epoch.
//
// A membership query performs zero shared mutable-memory writes outside the
// probed cells. An update writes one slot word plus striped statistics
// counters, so concurrent writers on different keys touch disjoint slot
// words, and no mutex serialises them. Every update still writes words that
// all writers share: the buffer's writers count (the fence, entered and
// left), its occupied count (on a fresh claim) and buffered count, and the
// dictionary's n and updates counts (on a change). Those cache lines move
// between writer cores on every write; the cell-probe model does not see
// them.
//
// Read contention stays within a constant of the static dictionary's: the
// buffer's parameter row is replicated and its slot probes are spread by
// hashing. Update contention is the interesting quantity the paper asks
// about — every writer must touch the buffer's occupancy region, and the
// package counts read and write probes separately (Stats.ReadProbes,
// Stats.WriteProbes) so experiment X1 can quantify exactly that. With
// Params.SyncRebuild and a single writer the whole update sequence is
// deterministic: no CAS is ever contended, so the probe accounting is the
// same on every run.
package dynamic

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/cellprobe"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/hash"
	"repro/internal/rng"
	"repro/internal/telemetry/events"
)

// Slot tags in the buffer (the top bits of a packed slot word).
const (
	slotEmpty    = uint64(0)
	slotInserted = uint64(1)
	slotDeleted  = uint64(2) // tombstone for a snapshot key
	slotVacated  = uint64(3) // removed buffer entry; keeps probe chains intact
)

// A buffer slot packs (tag, key) into one word so that readers and writers
// exchange it with single atomic operations: keys are < 2^61, the tag takes
// the bits above.
const (
	tagShift = 61
	keyMask  = uint64(1)<<tagShift - 1
)

// packSlot encodes (tag, key) into one slot word. It reports ok=false when
// the key does not fit below the tag bits or the tag is not one of the four
// slot states — the write paths validate keys against hash.MaxKey (< 2^61)
// first, so a failure here means a caller bug, not bad user input.
func packSlot(tag, key uint64) (word uint64, ok bool) {
	if tag > slotVacated || key > keyMask {
		return 0, false
	}
	return tag<<tagShift | key, true
}

// unpackSlot decodes a slot word back into (tag, key).
func unpackSlot(word uint64) (tag, key uint64) {
	return word >> tagShift, word & keyMask
}

const (
	bufParamRow = 0
	bufSlotRow  = 1
	bufRows     = 2
)

// Params configures the dynamic dictionary.
type Params struct {
	// Epsilon is the buffer fraction: a rebuild triggers after
	// ⌈Epsilon·max(n,1)⌉ buffered updates. Must be in (0, 1]. Default 0.25.
	Epsilon float64
	// Static configures the underlying static construction.
	Static core.Params
	// SyncRebuild runs global rebuilds inline on the triggering update
	// instead of in a background goroutine. Readers are never blocked
	// either way; synchronous mode makes the epoch sequence deterministic
	// for reproducible experiments (X1) at the cost of O(n) update-call
	// latency at each rebuild.
	SyncRebuild bool
	// Sink, when non-nil, receives the read probes of every Contains and
	// ContainsBatch call as one per-step tally (live telemetry). It is never
	// installed on a table. Buffer probes are counted with their step offset
	// by the static MaxProbes, keeping the two step ranges distinguishable in
	// step-mass reports. Write probes (claim walks and delta replays) never
	// reach the sink: they are counted exactly on Stats.WriteProbes and
	// Metrics.WriteClaim.
	Sink Sink
	// Metrics, when non-nil, receives the rebuild-side telemetry: epoch
	// publishes, rebuild durations, writer pauses at the buffer hard cap,
	// the buffered-delta depth, and the per-claim probe/CAS-retry counts of
	// the lock-free write path.
	Metrics Metrics
	// Events, when non-nil, receives the structured flight-recorder events
	// of the epoch life cycle: EpochSealed at the rebuild fence,
	// and RebuildStart/RebuildEnd around each construction.
	Events *events.Log
	// EventShard labels emitted events with this shard index (the sharded
	// composite sets it per shard; 0 for unsharded dictionaries).
	EventShard int
	// ShardEvents marks this dictionary as one shard of a multi-shard
	// composite: each published rebuild additionally emits a ShardRebuild
	// event, so composite-level consumers can watch shard churn without
	// decoding per-shard streams.
	ShardEvents bool
}

// Metrics receives a dynamic dictionary's rebuild-side telemetry.
// *telemetry.DynamicMetrics implements it; the indirection keeps this
// package below internal/telemetry in the import graph. WriteClaim is called
// from the lock-free write path by any number of concurrent writers;
// implementations must not take locks.
type Metrics interface {
	RebuildDone(n int, durationNs int64)
	RebuildFailed(durationNs int64)
	WriterPaused(pauseNs int64)
	SetDeltaDepth(depth int)
	// WriteClaim records one completed claim walk: the probes it issued and
	// the CAS races it lost along the way.
	WriteClaim(probes, casRetries uint64)
}

// emit records one flight-recorder event when a log is attached. Every
// emission is a rebuild-lifecycle event sent under d.mu, at most four per
// rebuild.
func (d *Dict) emit(typ events.Type, a, b, c uint64) {
	if d.p.Events != nil {
		d.p.Events.Emit(typ, d.p.EventShard, a, b, c)
	}
}

// Sink takes a dynamic dictionary's read probes as per-step counts;
// *telemetry.Telemetry with Sample ≤ 1 and no per-cell accounting
// implements it. The read path counts a query's or a batch's probes into a
// tally of TallyLen slots (which must be positive) in its pooled scratch
// (cellprobe.Table.ProbeTo), clamping later steps into the last slot, and
// hands it over with one FlushTally, which zeroes it.
type Sink interface {
	TallyLen() int
	FlushTally(tally []uint64)
}

// bufTally returns the part of a read tally that buffer probes count into:
// buffer steps sit past the static dictionary's off = MaxProbes steps, and
// steps past the tally's end clamp into its last slot. A nil tally (no
// sink) stays nil.
func bufTally(tally []uint64, off int) []uint64 {
	if tally == nil {
		return nil
	}
	return tally[min(off, len(tally)-1):]
}

// Stats describes the dictionary's dynamic behaviour. All counter fields are
// maintained on atomic or striped counters, so Stats is safe to call while
// writers and rebuilds are in full flight; totals read during a storm may
// trail in-progress operations by a few counts (quiesce for exact figures).
type Stats struct {
	Len             int    // current number of keys
	Epoch           int    // rebuilds performed
	SnapshotN       int    // keys in the current static snapshot
	Buffered        int    // live buffer entries (inserts + tombstones)
	BufferSlots     int    // buffer slot capacity
	RebuildKeys     int    // total keys across all rebuilds (amortization numerator)
	Updates         int    // total Insert/Delete calls that changed state
	ReadProbes      uint64 // probes issued by Contains (static probes counted at MaxProbes)
	WriteProbes     uint64 // probes and writes issued by Insert/Delete (replays included)
	WriteCASRetries uint64 // claim CASes lost to a racing writer (0 single-writer)
	RebuildCells    int    // cells written by the last rebuild
	StaticHashTries int    // hash draws of the last rebuild
}

// buffer is the update buffer of one epoch: an open-addressing table whose
// slot words are atomic, so lock-free readers and writers run concurrently.
// The acct table carries the cell-probe model's accounting (probe recording,
// replicated parameter row); slot data lives in the packed atomic words.
type buffer struct {
	acct      *cellprobe.Table
	slots     []atomic.Uint64
	width     int
	threshold int // occupancy that triggers a rebuild
	hardCap   int // occupancy at which writers wait for the rebuild (load ≤ 1/2)

	occupied atomic.Int64 // slots claimed (including vacated) — drives rebuild
	buffered atomic.Int64 // live entries: occupied minus vacated

	// Epoch-scoped writer accounting: the rebuild fence. writers counts
	// lock-free claims in flight; sealed, once set (it is never cleared),
	// diverts new writers to the mutex path. The rebuilder seals, then waits
	// for writers to drain before scanning the slots for its snapshot.
	writers atomic.Int64
	sealed  atomic.Bool
}

// bufView is how one read call probes the buffer, resolved once per call
// after core's openView. When nothing observes the accounting table's probes
// (cellprobe.Table.CellView is non-nil: no Recorder, trace or ForwardTo
// link), direct is set: the probe hash h is read once from the one-value
// parameter row, every probe is counted straight into tally at its step,
// clamped into the last slot exactly as ProbeTo clamps, and no table call
// is made. Otherwise every probe goes through ProbeTo, so each observer
// still sees it. Slot words are loaded from the atomic slots either way. The two routes probe, count and answer
// alike; the zero view is the ProbeTo route with no tally.
type bufView struct {
	h      hash.Pairwise
	tally  []uint64 // buffer part of the read tally (bufTally), or nil
	direct bool
}

// view resolves b's read route for one call that counts into tally.
func (b *buffer) view(tally []uint64) bufView {
	v := bufView{tally: tally}
	if rows := b.acct.CellView(); rows != nil {
		c := rows[bufParamRow][0]
		v.h = hash.Pairwise{A: c.Lo, B: c.Hi, M: uint64(b.width)}
		v.direct = true
	}
	return v
}

// count tallies one direct-route probe at step, as ProbeTo would.
func (v *bufView) count(step int) {
	if v.tally != nil {
		v.tally[min(step, len(v.tally)-1)]++
	}
}

// params probes replica col of the buffer's parameter row at step 0 through
// v. Callers draw col uniformly from [0, width) on either route, so the
// random stream is consumed alike.
func (b *buffer) params(col int, v *bufView) hash.Pairwise {
	if v.direct {
		v.count(0)
		return v.h
	}
	c := b.acct.ProbeTo(0, bufParamRow, col, v.tally)
	return hash.Pairwise{A: c.Lo, B: c.Hi, M: uint64(b.width)}
}

// seal closes the buffer to lock-free writers and waits for those already
// inside to finish, so that a subsequent slot scan observes every committed
// claim. Callers hold the dictionary mutex; sealed is never cleared again —
// the buffer's epoch is replaced instead.
func (b *buffer) seal() {
	b.sealed.Store(true)
	for b.writers.Load() != 0 {
		runtime.Gosched()
	}
}

// find walks the probe chain for x from its home slot p = h(x). It returns
// x's slot whatever its tag (found=true; vacated means "answer from the
// snapshot") or the first empty slot (found=false). x holds at most one slot
// per epoch (see claim), so the walk is as short as x's chain, however often
// x churned. Probes are made through v at steps 1, 2, ...; callers already
// probed the parameter row at step 0. It is the read paths' only chain walk.
func (b *buffer) find(x uint64, p int, v *bufView) (slot int, tag uint64, found bool, probes uint64, err error) {
	for step := 1; step <= b.width+1; step++ {
		if v.direct {
			v.count(step)
		} else {
			b.acct.ProbeTo(step, bufSlotRow, p, v.tally)
		}
		w := b.slots[p].Load()
		probes++
		t, k := unpackSlot(w)
		switch {
		case t == slotEmpty:
			return p, slotEmpty, false, probes, nil
		case k == x:
			return p, t, true, probes, nil
		}
		p = (p + 1) % b.width
	}
	return 0, 0, false, probes, fmt.Errorf("dynamic: buffer scan wrapped (corrupt table?)")
}

// epoch is one immutable published state: a static snapshot plus the buffer
// absorbing the updates since. Readers obtain both with one pointer load.
// baseSet holds the snapshot's key set for the claim path's O(1)
// membership checks (base.Keys() enumerates the same keys for the next
// rebuild); it is frozen before the epoch is published, so writers consult
// it without coordination.
type epoch struct {
	base    *core.Dict
	buf     *buffer
	baseSet map[uint64]bool
}

// update is one buffered operation, logged for replay when a background
// rebuild swaps epochs. Only mutex-path writers (those fenced out of a
// sealed buffer) append to the delta, so the log order is the linearization
// order of the operations it holds.
type update struct {
	key uint64
	del bool
}

// claimOutcome classifies one claim walk.
type claimOutcome int

const (
	claimNoChange claimOutcome = iota // membership already as requested
	claimChanged                      // slot published, membership changed
	claimFull                         // occupancy cap reached; caller must wait
)

// Dict is a dynamic low-contention dictionary. Contains and Len are safe
// for any number of concurrent callers and take no lock. Insert and Delete
// are safe for any number of concurrent callers too: the fast path claims
// buffer slots with CAS and takes no lock; the internal mutex is acquired
// only to coordinate epoch transitions (rebuild trigger, sealed-buffer
// delta logging, hard-cap waits). Probe recording (BaseTable/BufferTable
// with an attached Recorder) is a sequential measurement mode: quiesce and
// stop updating while a recorder is attached.
type Dict struct {
	p    Params
	seed uint64

	cur atomic.Pointer[epoch]
	n   atomic.Int64 // current key count, mirrored for lock-free Len

	readProbes  *cellprobe.StripedCounter
	writeProbes *cellprobe.StripedCounter
	casRetries  *cellprobe.StripedCounter
	updates     atomic.Int64 // state-changing Insert/Delete calls
	scratch     sync.Pool    // *core.QueryScratch reused across Contains calls
	batch       sync.Pool    // *batchState reused across ContainsBatch calls

	mu         sync.Mutex
	cond       *sync.Cond
	epoch      int // epochs started (== Stats.Epoch when idle)
	rebuilding bool
	rebuildErr error
	delta      []update // updates applied to a sealed buffer since its snapshot scan
	stats      Stats    // rebuild-owned fields; counters live on the atomics above
}

// New builds a dynamic dictionary over the initial keys. The initial
// construction (epoch 1) is always synchronous.
func New(initial []uint64, p Params, seed uint64) (*Dict, error) {
	if p.Epsilon == 0 {
		p.Epsilon = 0.25
	}
	if p.Epsilon < 0 || p.Epsilon > 1 {
		return nil, fmt.Errorf("dynamic: epsilon %v outside (0, 1]", p.Epsilon)
	}
	d := &Dict{
		p:           p,
		seed:        seed,
		readProbes:  cellprobe.NewStripedCounter(),
		writeProbes: cellprobe.NewStripedCounter(),
		casRetries:  cellprobe.NewStripedCounter(),
	}
	d.scratch.New = func() any {
		sc := new(core.QueryScratch)
		sc.SetTally(d.newTally())
		return sc
	}
	d.batch.New = func() any {
		st := new(batchState)
		st.sc.SetTally(d.newTally())
		return st
	}
	d.cond = sync.NewCond(&d.mu)
	d.n.Store(int64(len(initial)))
	d.mu.Lock()
	defer d.mu.Unlock()
	d.epoch = 1
	started := time.Now()
	d.emit(events.RebuildStart, 1, uint64(len(initial)), 0)
	// core.Build validates the keys and retains no reference to them.
	base, err := core.Build(initial, d.p.Static, d.seed+1)
	d.rebuilding = true
	d.finishRebuild(base, err, 1, initial, started)
	if d.rebuildErr != nil {
		return nil, d.rebuildErr
	}
	return d, nil
}

// newTally returns a zeroed read tally for a pooled scratch, or nil without
// a sink.
func (d *Dict) newTally() []uint64 {
	if d.p.Sink == nil {
		return nil
	}
	return make([]uint64, d.p.Sink.TallyLen())
}

// newBuffer sizes and seeds the buffer of epoch ep for a snapshot of n keys.
func (d *Dict) newBuffer(n, ep int) *buffer {
	threshold := int(d.p.Epsilon * float64(max(n, 1)))
	if threshold < 1 {
		threshold = 1
	}
	// Slot capacity 4× the threshold keeps the load factor ≤ 1/4 at the
	// trigger point (and ≤ 1/2 at the writers' hard cap) so probe chains
	// stay O(1) in expectation.
	width := 4 * threshold
	if width < 8 {
		width = 8
	}
	b := &buffer{
		acct:      cellprobe.New(bufRows, width),
		slots:     make([]atomic.Uint64, width),
		width:     width,
		threshold: threshold,
		hardCap:   width / 2,
	}
	// Both rows are one-value block rows: the parameter row replicates the
	// probe hash across its width, and the slot row only accounts for probes
	// (its data lives in the atomic slot words).
	r := rng.New(d.seed ^ uint64(ep)<<32)
	h := hash.NewPairwise(r, uint64(width))
	b.acct.SetBlockRow(bufParamRow, []cellprobe.Cell{{Lo: h.A, Hi: h.B}}, width)
	b.acct.SetBlockRow(bufSlotRow, []cellprobe.Cell{{}}, width)
	return b
}

// snapshotKeys derives the current key set from an epoch whose buffer has
// been sealed and drained: the snapshot's keys minus tombstones, plus the
// buffer's live inserts. The order (the base's bucket order, then slot
// order) is deterministic given a deterministic update sequence, and the
// build does not depend on it anyway. Callers hold d.mu.
func snapshotKeys(e *epoch) []uint64 {
	var inserted []uint64
	deleted := make(map[uint64]bool)
	for i := range e.buf.slots {
		tag, key := unpackSlot(e.buf.slots[i].Load())
		switch tag {
		case slotInserted:
			inserted = append(inserted, key)
		case slotDeleted:
			deleted[key] = true
		}
	}
	keys := slices.DeleteFunc(e.base.Keys(), func(k uint64) bool { return deleted[k] })
	return append(keys, inserted...)
}

// startRebuild seals the current buffer, snapshots the key set and kicks off
// construction of the next epoch. Callers hold d.mu.
func (d *Dict) startRebuild() {
	d.rebuilding = true
	d.epoch++
	ep := d.epoch
	e := d.cur.Load()
	// Fence: after seal returns, no lock-free writer is inside the buffer
	// and none will enter again, so the slot scan below observes every
	// committed claim. Later writers divert to the mutex path and land in
	// the delta log.
	e.buf.seal()
	d.emit(events.EpochSealed, uint64(ep), uint64(e.buf.buffered.Load()), 0)
	keys := snapshotKeys(e)
	d.delta = nil
	started := time.Now()
	d.emit(events.RebuildStart, uint64(ep), uint64(len(keys)), 0)
	if d.p.SyncRebuild {
		base, err := core.Build(keys, d.p.Static, d.seed+uint64(ep))
		d.finishRebuild(base, err, ep, keys, started)
		return
	}
	go func() {
		base, err := core.Build(keys, d.p.Static, d.seed+uint64(ep))
		d.mu.Lock()
		defer d.mu.Unlock()
		d.finishRebuild(base, err, ep, keys, started)
	}()
}

// finishRebuild publishes epoch ep around the freshly built base, replaying
// any updates that arrived while the build ran. Callers hold d.mu.
func (d *Dict) finishRebuild(base *core.Dict, err error, ep int, keys []uint64, started time.Time) {
	d.rebuilding = false
	defer d.cond.Broadcast()
	if err != nil {
		durNs := time.Since(started).Nanoseconds()
		if d.p.Metrics != nil {
			d.p.Metrics.RebuildFailed(durNs)
		}
		d.emit(events.RebuildEnd, events.MarkFailed(uint64(ep)), uint64(len(keys)), uint64(durNs))
		d.rebuildErr = fmt.Errorf("dynamic: rebuild %d: %w", ep, err)
		return
	}
	n := len(keys)
	set := make(map[uint64]bool, n)
	for _, k := range keys {
		set[k] = true
	}
	ne := &epoch{base: base, buf: d.newBuffer(n, ep), baseSet: set}
	// Replay the delta in log order. The ops were serialized by d.mu against
	// the sealed old buffer, so replaying them one by one reconstructs the
	// same membership on the new epoch; replay may exceed the hard cap (the
	// trailing threshold check below rebuilds again rather than lose an op).
	// The ops were already committed and counted when they first ran against
	// the sealed old epoch; ne is not yet published, so nothing races them.
	for _, u := range d.delta {
		if _, cerr := d.claim(ne, u.key, u.del, ne.buf.width); cerr != nil {
			d.rebuildErr = fmt.Errorf("dynamic: rebuild %d replay: %w", ep, cerr)
			return
		}
	}
	d.delta = nil
	durNs := time.Since(started).Nanoseconds()
	if d.p.Metrics != nil {
		d.p.Metrics.RebuildDone(n, durNs)
		d.p.Metrics.SetDeltaDepth(int(ne.buf.buffered.Load()))
	}
	d.cur.Store(ne)
	d.emit(events.RebuildEnd, uint64(ep), uint64(n), uint64(durNs))
	if d.p.ShardEvents {
		d.emit(events.ShardRebuild, uint64(ep), uint64(n), uint64(durNs))
	}
	d.stats.Epoch = ep
	d.stats.SnapshotN = n
	d.stats.RebuildKeys += n
	d.stats.RebuildCells = base.Table().Size() + ne.buf.acct.Size()
	d.stats.StaticHashTries = base.Report().HashTries
	// Replayed updates may already exceed the new, possibly smaller
	// threshold — go again rather than let writers hit the hard cap.
	if int(ne.buf.occupied.Load()) >= ne.buf.threshold {
		d.startRebuild()
	}
}

// claim walks x's probe chain in e's buffer and publishes one update by CAS
// — the lock-free write path. capLimit bounds the occupancy a fresh claim
// may reach (hardCap for live writers, the full width for delta replay).
// It is safe for any number of concurrent callers on an unsealed buffer;
// the rebuild fence (writer accounting) is the caller's responsibility.
//
// x's slot is the first slot of its chain that is empty or holds x, and it
// is reused for every write of x within the epoch, so churn on one key never
// lengthens a chain. Why one CAS on that slot is a linearizable write:
//
//  1. x holds at most one slot per epoch. Slots never become empty again and
//     a claimed slot never changes key, so every slot before x's slot in the
//     chain holds another key for the rest of the epoch, and the walk stops
//     at the same slot every time.
//  2. Every writer of x therefore meets at that slot, and its CAS serialises
//     them: a loser re-reads the word and decides again on what won.
//  3. The slot may cycle vacated(x) → inserted(x) → vacated(x), so a CAS can
//     succeed against a word equal to the one it read even though other
//     writes landed in between. That is still right: the new word depends
//     only on the word read and on the epoch's frozen baseSet, and the word
//     alone (with baseSet) is x's membership.
func (d *Dict) claim(e *epoch, x uint64, del bool, capLimit int) (claimOutcome, error) {
	b := e.buf
	seed := d.seed ^ x
	if del {
		seed ^= 0xdead
	}
	// Write probes are counted on writeProbes and Metrics.WriteClaim, never
	// on the read sink's tally (the zero view: ProbeTo, no tally). The
	// generator stays on the stack (rng.New inlines), so a write allocates
	// nothing.
	h := b.params(rng.New(seed).Intn(b.width), &bufView{})
	probes := uint64(1) // the step-0 parameter probe
	var retries uint64
	outcome := claimNoChange
	var err error
	inBase := e.baseSet[x]

	p := int(h.Eval(x))
walk:
	for step := 1; ; step++ {
		if step > b.width+1 {
			err = fmt.Errorf("dynamic: buffer scan wrapped (corrupt table?)")
			break walk
		}
		b.acct.Probe(step, bufSlotRow, p)
		w := b.slots[p].Load()
		probes++
		for {
			tag, key := unpackSlot(w)
			if tag != slotEmpty && key != x {
				break // another key's slot: the chain continues
			}
			// x's slot. Its word decides x's membership: a live entry
			// (inserted or deleted) answers directly; empty or vacated
			// defers to the immutable snapshot set.
			member := inBase
			switch tag {
			case slotInserted:
				member = true
			case slotDeleted:
				member = false
			}
			if member != del {
				break walk // membership already as requested
			}
			// The new word: vacated when the change returns x to its
			// snapshot membership, else a live entry — an insert of a key
			// outside the snapshot, or a tombstone for a snapshot key.
			newTag := slotVacated
			switch {
			case del && inBase:
				newTag = slotDeleted
			case !del && !inBase:
				newTag = slotInserted
			}
			nw, ok := packSlot(newTag, x)
			if !ok {
				err = fmt.Errorf("dynamic: key %d does not pack into a slot word", x)
				break walk
			}
			// A fresh slot pre-reserves occupancy so concurrent claims can
			// never push the load past capLimit (which keeps chains short
			// and this walk's wrap bound unreachable).
			if tag == slotEmpty && int(b.occupied.Add(1)) > capLimit {
				b.occupied.Add(-1)
				outcome = claimFull
				break walk
			}
			if b.slots[p].CompareAndSwap(w, nw) {
				probes++ // the publishing slot write
				if newTag == slotVacated {
					b.buffered.Add(-1)
				} else {
					b.buffered.Add(1)
				}
				outcome = claimChanged
				break walk
			}
			// Lost the slot to a racing writer. Re-read and re-decide on
			// the same slot: it may now hold x itself.
			if tag == slotEmpty {
				b.occupied.Add(-1)
			}
			retries++
			w = b.slots[p].Load()
			probes++
		}
		p = (p + 1) % b.width
	}
	d.writeProbes.Add(probes)
	if retries > 0 {
		d.casRetries.Add(retries)
	}
	if d.p.Metrics != nil {
		d.p.Metrics.WriteClaim(probes, retries)
	}
	return outcome, err
}

// Contains answers membership for x through recorded probes on both the
// buffer and the static tables of the current epoch. It takes no lock and
// writes no shared cache line beyond the striped probe counters; its working
// memory comes from a pooled scratch, so the steady-state read path
// performs no heap allocation. With a sink the query's probes are flushed
// to it once, after the query. A shared rng.Sharded r is drawn from
// once; the query's replica choices come from the scratch's own stream
// (core.QueryScratch.Source).
func (d *Dict) Contains(x uint64, r rng.Source) (bool, error) {
	e := d.cur.Load()
	sc := d.scratch.Get().(*core.QueryScratch)
	ok, err := d.containsEpoch(e, x, sc.Source(r), sc)
	if d.p.Sink != nil {
		d.p.Sink.FlushTally(sc.Tally())
	}
	d.scratch.Put(sc)
	return ok, err
}

// ContainsScratch is Contains with caller-supplied working memory, pinning
// the current epoch for the single query. The facade's telemetry path uses
// it with a capture-armed scratch to trace the static probes of a query
// (buffer probes are not captured — their cell indices are epoch-local).
// Probes are counted into sc's tally, if it carries one, which the caller
// owns and flushes; the sink sees nothing of them.
func (d *Dict) ContainsScratch(x uint64, r rng.Source, sc *core.QueryScratch) (bool, error) {
	return d.containsEpoch(d.cur.Load(), x, sc.Source(r), sc)
}

// containsEpoch answers membership against one pinned epoch.
func (d *Dict) containsEpoch(e *epoch, x uint64, r rng.Source, sc *core.QueryScratch) (bool, error) {
	b := e.buf
	v := b.view(bufTally(sc.Tally(), e.base.MaxProbes()))
	h := b.params(r.Intn(b.width), &v)
	_, tag, found, probes, err := b.find(x, int(h.Eval(x)), &v)
	if err != nil {
		return false, err
	}
	probes++ // the parameter probe
	if found {
		switch tag {
		case slotInserted, slotDeleted:
			d.readProbes.Add(probes)
			return tag == slotInserted, nil
		}
	}
	d.readProbes.Add(probes + uint64(e.base.MaxProbes()))
	return e.base.ContainsScratch(x, r, sc)
}

// bufAhead is how many keys ahead of the one it answers the batch cursor
// computes a home slot and prefetches its slot word (a power of two).
const bufAhead = 8

// batchCursor feeds a batch through the epoch's buffer pre-check and hands
// the static wavefront only the queries the buffer cannot resolve. It walks
// the keys in batch order and performs, for each key, exactly the probe and
// randomness sequence the sequential path performs — one buffer parameter
// draw, the chain walk (no draws) — before either writing the answer
// directly (buffer hit or tombstone) or yielding the key for wavefront
// admission, where its static random budget is drawn immediately. The
// batch's random stream (r, localised once per batch) is therefore consumed
// in exactly sequential order.
//
// The buffer is read through one bufView per batch. On its direct route
// the cursor also looks ahead: key i+bufAhead's home slot is computed when
// key i is answered, kept in ring until its turn, and its slot word is
// prefetched, so the walk's first load is already in flight. A prefetch is
// a hint outside the cell-probe model, as in core's wavefront: it is not a
// probe, draws nothing and counts nothing.
//
// The cursor sums the batch's read probes into probes, and counts buffer
// probes into the view's tally when it is non-nil, so the batch reaches the
// shared counters once rather than once per key.
type batchCursor struct {
	e      *epoch
	r      rng.Source
	st     *rng.Stream // r as a localised stream, so each draw inlines; or nil
	keys   []uint64
	out    []bool
	v      bufView
	static uint64 // the static dictionary's probes, counted per fall-through
	probes uint64 // read probes so far, as Stats.ReadProbes counts them
	pos    int
	err    error
	ring   [bufAhead]int // key j's home slot at j mod bufAhead (direct view)
}

// open starts c on a batch against epoch e, counting buffer probes into
// the buffer part of tally, and primes the ring with the first keys' home
// slots.
func (c *batchCursor) open(e *epoch, r rng.Source, keys []uint64, out []bool, tally []uint64) {
	*c = batchCursor{e: e, r: r, keys: keys, out: out,
		v: e.buf.view(bufTally(tally, e.base.MaxProbes())), static: uint64(e.base.MaxProbes())}
	c.st, _ = r.(*rng.Stream)
	if c.v.direct {
		for j := range min(bufAhead, len(keys)) {
			c.ring[j] = c.home(keys[j])
		}
	}
}

// home returns x's home slot on the direct route and prefetches its word.
func (c *batchCursor) home(x uint64) int {
	p := int(c.v.h.Eval(x))
	cpu.Prefetch(unsafe.Pointer(&c.e.buf.slots[p]))
	return p
}

func (c *batchCursor) NextQuery() (int, uint64, bool) {
	b := c.e.buf
	for c.pos < len(c.keys) && c.err == nil {
		i := c.pos
		c.pos++
		x := c.keys[i]
		var col int
		if c.st != nil {
			col = c.st.Intn(b.width)
		} else {
			col = c.r.Intn(b.width)
		}
		h := b.params(col, &c.v)
		var p int
		if c.v.direct {
			k := i % bufAhead
			p = c.ring[k]
			if j := i + bufAhead; j < len(c.keys) {
				c.ring[k] = c.home(c.keys[j])
			}
		} else {
			p = int(h.Eval(x))
		}
		_, tag, found, probes, err := b.find(x, p, &c.v)
		if err != nil {
			c.err = err
			return 0, 0, false
		}
		c.probes += probes + 1 // chain + the parameter probe
		if found {
			switch tag {
			case slotInserted:
				c.out[i] = true
				continue
			case slotDeleted:
				c.out[i] = false
				continue
			}
		}
		c.probes += c.static
		return i, x, true
	}
	return 0, 0, false
}

// batchState bundles the per-batch working memory — the core scratch with
// its wavefront arena and read tally, plus the buffer cursor and its
// look-ahead ring — into one poolable unit.
type batchState struct {
	sc  core.QueryScratch
	cur batchCursor
}

// ContainsBatch answers membership for every keys[i] into out[i]. The whole
// batch runs against a single epoch snapshot loaded once up front — one
// atomic pointer load and one scratch fetch amortized over the batch — so
// concurrent updates that publish a new epoch mid-batch are not observed.
// Queries the buffer cannot resolve flow through the static dictionary's
// wavefront scheduler (core.ContainsWavefront), overlapping the cache
// misses of up to BatchGroup probe chains; answers and per-query probes are
// identical to a sequential loop over the batch. out must be at least as
// long as keys. It stops at the first corrupt-buffer or corrupt-table
// error (queries in flight at that point are abandoned). The batch's read
// probes reach the shared counters — and the sink — once per batch,
// and a shared rng.Sharded r is drawn from once per batch. The buffer
// pre-check reads the buffer through one view per batch (bufView; the
// ProbeTo route while an observer is attached to BufferTable) and
// prefetches slot words a few keys ahead; a prefetch is a hint outside the
// cell-probe model, as in core's wavefront.
func (d *Dict) ContainsBatch(keys []uint64, out []bool, r rng.Source) error {
	if len(out) < len(keys) {
		return fmt.Errorf("dynamic: ContainsBatch output length %d < %d keys", len(out), len(keys))
	}
	st := d.batch.Get().(*batchState)
	e := d.cur.Load()
	st.cur.open(e, st.sc.Source(r), keys, out, st.sc.Tally())
	err := d.answerBatch(&st.cur, &st.sc)
	if d.p.Sink != nil {
		d.p.Sink.FlushTally(st.sc.Tally())
	}
	st.cur = batchCursor{} // drop epoch/slice references before pooling
	d.batch.Put(st)
	return err
}

// ContainsBatchScratch is ContainsBatch with caller-supplied working
// memory, pinning the current epoch for the whole batch. The equivalence
// battery uses it with a batch-capture-armed scratch to compare the static
// probe cells of wavefront and sequential answers (buffer probes are not
// captured — their cell indices are epoch-local). As with ContainsScratch,
// a tally on sc is the caller's to flush. The buffer is read as in
// ContainsBatch: through a per-call view, or through ProbeTo while an
// observer is attached to BufferTable.
func (d *Dict) ContainsBatchScratch(keys []uint64, out []bool, r rng.Source, sc *core.QueryScratch) error {
	if len(out) < len(keys) {
		return fmt.Errorf("dynamic: ContainsBatch output length %d < %d keys", len(out), len(keys))
	}
	var cur batchCursor
	cur.open(d.cur.Load(), sc.Source(r), keys, out, sc.Tally())
	return d.answerBatch(&cur, sc)
}

// answerBatch answers cur's batch against its pinned epoch: the buffer
// pre-check in the cursor, the rest through the static wavefront on sc. The
// batch's read probes are added to the shared counter in one add.
func (d *Dict) answerBatch(cur *batchCursor, sc *core.QueryScratch) error {
	err := cur.e.base.ContainsWavefront(cur, cur.out, cur.r, sc)
	d.readProbes.Add(cur.probes)
	if err != nil {
		return err
	}
	return cur.err
}

// Insert adds x. It reports whether the dictionary changed; crossing the
// buffer threshold triggers a rebuild (background unless SyncRebuild).
// Safe for any number of concurrent callers.
func (d *Dict) Insert(x uint64) (bool, error) {
	if x >= hash.MaxKey {
		return false, fmt.Errorf("dynamic: key %d outside universe", x)
	}
	return d.mutate(x, false)
}

// Delete removes x. It reports whether the dictionary changed. Safe for any
// number of concurrent callers.
func (d *Dict) Delete(x uint64) (bool, error) {
	return d.mutate(x, true)
}

// mutate is the lock-free write fast path: enter the current epoch's buffer
// through the writer fence, claim a slot by CAS, and fall back to the mutex
// only when the buffer is sealed (rebuild snapshot in progress) or at its
// occupancy hard cap.
func (d *Dict) mutate(x uint64, del bool) (bool, error) {
	e := d.cur.Load()
	b := e.buf
	b.writers.Add(1)
	// The fence: writers increments before the sealed check, the sealer
	// stores sealed before waiting on writers (both seq-cst), so either we
	// see sealed here and retreat, or the sealer waits for our claim.
	if b.sealed.Load() {
		b.writers.Add(-1)
		return d.mutateSlow(x, del)
	}
	if int(b.occupied.Load()) >= b.hardCap {
		b.writers.Add(-1)
		return d.mutateSlow(x, del)
	}
	outcome, err := d.claim(e, x, del, b.hardCap)
	b.writers.Add(-1)
	if err != nil {
		return false, err
	}
	if outcome == claimFull {
		return d.mutateSlow(x, del)
	}
	if outcome == claimNoChange {
		return false, nil
	}
	d.commitChange(del)
	if int(b.occupied.Load()) >= b.threshold {
		d.mu.Lock()
		// Re-check under the lock: another writer may have triggered the
		// rebuild (or published a whole new epoch) while we raced here.
		if !d.rebuilding && d.rebuildErr == nil && d.cur.Load() == e &&
			int(b.occupied.Load()) >= b.threshold {
			d.startRebuild()
		}
		d.mu.Unlock()
	}
	return true, nil
}

// commitChange records one successful membership change.
func (d *Dict) commitChange(del bool) {
	if del {
		d.n.Add(-1)
	} else {
		d.n.Add(1)
	}
	d.updates.Add(1)
}

// mutateSlow is the mutex path: taken when the fast path found the buffer
// sealed (a rebuild is scanning or building) or at its hard cap. Under the
// lock it applies the update to whatever epoch is current — including a
// sealed buffer, whose readers are still live and must observe the update —
// and logs sealed-buffer operations for replay into the next epoch.
func (d *Dict) mutateSlow(x uint64, del bool) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var pauseStart time.Time
	paused := false
	endPause := func() {
		if paused && d.p.Metrics != nil {
			d.p.Metrics.WriterPaused(time.Since(pauseStart).Nanoseconds())
		}
	}
	for {
		if d.rebuildErr != nil {
			endPause()
			return false, d.rebuildErr
		}
		e := d.cur.Load()
		b := e.buf
		if int(b.occupied.Load()) < b.hardCap {
			// Either a live (unsealed) buffer — our claim races only other
			// claims, which CAS handles — or a sealed buffer mid-rebuild,
			// where the mutex makes us its only writer.
			outcome, err := d.claim(e, x, del, b.hardCap)
			if err != nil {
				endPause()
				return false, err
			}
			if outcome != claimFull {
				endPause()
				if outcome == claimNoChange {
					return false, nil
				}
				d.commitChange(del)
				if b.sealed.Load() && d.rebuilding {
					// The snapshot scan has already run: log for replay so
					// the change survives the epoch swap.
					d.delta = append(d.delta, update{key: x, del: del})
					if d.p.Metrics != nil {
						d.p.Metrics.SetDeltaDepth(len(d.delta))
					}
				}
				if !d.rebuilding && int(b.occupied.Load()) >= b.threshold {
					d.startRebuild()
				}
				return true, nil
			}
		}
		// At the hard cap: start the rebuild if nobody has, else wait for
		// the epoch swap and retry against the fresh buffer.
		if !d.rebuilding {
			d.startRebuild()
			continue
		}
		if !paused {
			paused = true
			pauseStart = time.Now()
		}
		d.cond.Wait()
	}
}

// Len returns the current number of keys without taking a lock.
func (d *Dict) Len() int { return int(d.n.Load()) }

// Quiesce blocks until no rebuild is in flight. Call it before attaching
// probe recorders or reading Stats that must reflect a settled epoch.
func (d *Dict) Quiesce() {
	d.mu.Lock()
	for d.rebuilding {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// Rebuilding reports whether a background rebuild is currently in flight.
func (d *Dict) Rebuilding() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rebuilding
}

// Stats returns a snapshot of the dynamic statistics. It is safe to call
// concurrently with writers and rebuilds (counters are atomic or striped);
// epoch-dependent fields settle only after Quiesce.
func (d *Dict) Stats() Stats {
	d.mu.Lock()
	s := d.stats
	d.mu.Unlock()
	s.Len = int(d.n.Load())
	s.Updates = int(d.updates.Load())
	e := d.cur.Load()
	s.Buffered = int(e.buf.buffered.Load())
	s.BufferSlots = e.buf.width
	s.ReadProbes = d.readProbes.Sum()
	s.WriteProbes = d.writeProbes.Sum()
	s.WriteCASRetries = d.casRetries.Sum()
	return s
}

// BaseTable exposes the current epoch's static table (for contention
// recording). The result is stable only while the dictionary is quiescent.
func (d *Dict) BaseTable() *cellprobe.Table { return d.cur.Load().base.Table() }

// Base exposes the current epoch's static snapshot itself, so exact
// contention can be computed for the structure live queries currently fall
// through to (the telemetry live-vs-exact comparison). Like BaseTable, the
// result is stable only while the dictionary is quiescent — a concurrent
// rebuild publishes a new snapshot.
func (d *Dict) Base() *core.Dict { return d.cur.Load().base }

// BufferTable exposes the current epoch's update-buffer table. Slot cells
// read as zero through it — slot data lives in atomic words — but probe
// accounting (recording, size) is exact.
func (d *Dict) BufferTable() *cellprobe.Table { return d.cur.Load().buf.acct }

// MaxReadProbes bounds the probes of one Contains call in the common case
// (buffer chain of length 1): one parameter probe, one slot probe, plus the
// static dictionary's probes. Longer chains add one probe each.
func (d *Dict) MaxReadProbes() int { return 2 + d.cur.Load().base.MaxProbes() }
