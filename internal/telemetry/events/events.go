// Package events is the dictionary's flight recorder: an always-on,
// lock-free record of the structural moments the gauge-style telemetry
// cannot reconstruct after the fact — when an epoch's buffer sealed, how
// long each rebuild ran and how many keys it carried, when a write-
// absorption phase split or joined, which (hashed) keys the classifier
// promoted, and when the adaptive sampler retuned.
//
// # Design
//
// Emitters — the dynamic dictionary's rebuild path, the sharded composite,
// the adaptive-sampling controller, the hot-key classifier — call Emit from
// whatever goroutine they run on; Emit is wait-free for the common case and
// lock-free always (one CAS claim on a bounded multi-producer ring in the
// style of Vyukov's bounded MPMC queue, then plain payload stores released
// by the slot's sequence word). A full ring never blocks an emitter and
// never silently loses history: Emit counts the drop on an exact atomic
// counter and returns false, and the next drain synthesizes an
// OverflowDropped event carrying the cumulative total, so a timeline reader
// can always see how much it missed.
//
// The single consumer (Timeline, Stats — any reader) drains the MPSC ring
// under a mutex into a larger timeline ring, assigning each event a global
// monotone sequence number. Timeline(since, max) serves any suffix of the
// retained window by cursor, which is what gives lcds-server's
// /debug/timeline endpoint stateless pagination.
//
// The package depends only on the standard library, so every layer of the
// repository — internal/dynamic, internal/shard, internal/telemetry — can
// emit into one shared log without import cycles.
package events

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Type enumerates the recorded event kinds.
type Type uint8

const (
	// EpochSealed: a rebuild sealed the epoch's update buffer behind the
	// writer fence. A = epoch, B = live buffered entries at the seal.
	EpochSealed Type = iota
	// RebuildStart: a snapshot was taken and construction of the next core
	// began. A = epoch, B = keys in the snapshot.
	RebuildStart
	// RebuildEnd: the rebuild published (or failed). A = epoch (failedBit
	// set when the build errored), B = keys, C = duration in nanoseconds.
	RebuildEnd
	// PhaseSplit: the freshly published epoch runs a split phase.
	// A = epoch, B = absorbed-hot key count.
	PhaseSplit
	// PhaseJoined: the freshly published epoch returned to a joined phase.
	// A = epoch.
	PhaseJoined
	// HotKeyPromoted: the classifier promoted a key into the absorbed-hot
	// set. A = hash of the key (never the key itself), B = its weighted
	// claim count in the promotion window.
	HotKeyPromoted
	// HotKeyDemoted: the classifier demoted a cooled key. A = hash of the
	// key.
	HotKeyDemoted
	// SamplingRetuned: the adaptive controller changed the sampling factor.
	// A = previous k, B = new k.
	SamplingRetuned
	// ShardRebuild: one shard of a sharded composite published a rebuild
	// (emitted alongside RebuildEnd so composite-level consumers can watch
	// shard churn without decoding per-shard streams). A = epoch, B = keys,
	// C = duration in nanoseconds.
	ShardRebuild
	// OverflowDropped: synthesized by the drain when emitters dropped
	// events on a full ring since the previous drain. A = drops since the
	// last OverflowDropped event, B = cumulative drops since the log was
	// created.
	OverflowDropped

	// NumTypes is the number of event types (for per-type counter arrays).
	NumTypes = int(OverflowDropped) + 1
)

// failedBit marks a RebuildEnd whose build errored (set on the A word, far
// above any real epoch number).
const failedBit = uint64(1) << 63

// FailedRebuild reports whether a RebuildEnd event records a failed build,
// and returns the epoch with the failure flag cleared.
func FailedRebuild(a uint64) (epoch uint64, failed bool) {
	return a &^ failedBit, a&failedBit != 0
}

// MarkFailed sets the failure flag on a RebuildEnd epoch word.
func MarkFailed(epoch uint64) uint64 { return epoch | failedBit }

// typeNames maps Type to its wire name (stable: the /debug/timeline schema
// and the lcds_events_total{type=...} label values).
var typeNames = [NumTypes]string{
	EpochSealed:     "epoch_sealed",
	RebuildStart:    "rebuild_start",
	RebuildEnd:      "rebuild_end",
	PhaseSplit:      "phase_split",
	PhaseJoined:     "phase_joined",
	HotKeyPromoted:  "hot_key_promoted",
	HotKeyDemoted:   "hot_key_demoted",
	SamplingRetuned: "sampling_retuned",
	ShardRebuild:    "shard_rebuild",
	OverflowDropped: "overflow_dropped",
}

// String returns the stable wire name of the type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type_%d", int(t))
}

// Event is one recorded moment. Seq is the global timeline cursor assigned
// at drain time (monotone from 1, no gaps among retained events); A, B and C
// are type-specific payload words documented on each Type constant.
type Event struct {
	Seq      uint64 `json:"seq"`
	UnixNano int64  `json:"unix_nano"`
	Type     Type   `json:"-"`
	Shard    int32  `json:"shard"`
	A        uint64 `json:"-"`
	B        uint64 `json:"-"`
	C        uint64 `json:"-"`
}

// MarshalJSON renders the event with its payload words decoded into named,
// type-specific fields — the /debug/timeline schema.
func (e Event) MarshalJSON() ([]byte, error) {
	m := map[string]any{
		"seq":       e.Seq,
		"unix_nano": e.UnixNano,
		"type":      e.Type.String(),
		"shard":     e.Shard,
	}
	switch e.Type {
	case EpochSealed:
		m["epoch"] = e.A
		m["buffered"] = e.B
	case RebuildStart:
		m["epoch"] = e.A
		m["keys"] = e.B
	case RebuildEnd:
		epoch, failed := FailedRebuild(e.A)
		m["epoch"] = epoch
		m["keys"] = e.B
		m["duration_ns"] = e.C
		if failed {
			m["failed"] = true
		}
	case PhaseSplit:
		m["epoch"] = e.A
		m["hot_keys"] = e.B
	case PhaseJoined:
		m["epoch"] = e.A
	case HotKeyPromoted:
		m["key_hash"] = e.A
		m["weight"] = e.B
	case HotKeyDemoted:
		m["key_hash"] = e.A
	case SamplingRetuned:
		m["old_k"] = e.A
		m["new_k"] = e.B
	case ShardRebuild:
		m["epoch"] = e.A
		m["keys"] = e.B
		m["duration_ns"] = e.C
	case OverflowDropped:
		m["dropped"] = e.A
		m["dropped_total"] = e.B
	}
	return json.Marshal(m)
}

// slot is one cell of the MPSC ring. seq carries the Vyukov claim/release
// protocol: a producer may claim position p when seq == p, publishes with
// seq = p+1, and the drain frees the cell with seq = p+capacity. The payload
// fields are plain words — every write to them happens between the
// producer's CAS claim and its releasing seq store, and every read between
// the drain's acquiring seq load and its freeing store, so the atomic
// sequence word orders them without per-field atomics.
type slot struct {
	seq      atomic.Uint64
	unixNano int64
	typ      Type
	shard    int32
	a, b, c  uint64
}

// Log is the flight recorder: a bounded lock-free MPSC ring absorbing
// emissions, drained on read into a timeline ring with global cursors.
// Emit is safe for any number of concurrent callers; the read side
// (Timeline, Stats, TypeCounts) serializes on an internal mutex.
type Log struct {
	slots []slot
	mask  uint64
	enq   atomic.Uint64

	dropped atomic.Uint64 // emissions refused on a full ring, exact
	counts  [NumTypes]atomic.Uint64

	mu       sync.Mutex
	deq      uint64  // next ring position to drain (under mu)
	timeline []Event // retained window, a ring over nextSeq
	nextSeq  uint64  // sequence number of the next drained event (from 1)
	synced   uint64  // cumulative drops already surfaced as OverflowDropped
}

// DefaultRingCapacity and DefaultTimelineCapacity size NewLog(0, 0): the
// ring absorbs bursts between drains, the timeline is the retained history.
const (
	DefaultRingCapacity     = 1024
	DefaultTimelineCapacity = 4096
)

// NewLog creates a flight recorder. ringCap bounds the undrained burst a
// set of emitters can accumulate (rounded up to a power of two; ≤ 0 selects
// DefaultRingCapacity); timelineCap is the retained-history window (≤ 0
// selects DefaultTimelineCapacity).
func NewLog(ringCap, timelineCap int) *Log {
	if ringCap <= 0 {
		ringCap = DefaultRingCapacity
	}
	n := 1
	for n < ringCap {
		n <<= 1
	}
	if timelineCap <= 0 {
		timelineCap = DefaultTimelineCapacity
	}
	l := &Log{
		slots:    make([]slot, n),
		mask:     uint64(n - 1),
		timeline: make([]Event, 0, timelineCap),
		nextSeq:  1,
	}
	for i := range l.slots {
		l.slots[i].seq.Store(uint64(i))
	}
	return l
}

// RingCapacity returns the MPSC ring's slot count.
func (l *Log) RingCapacity() int { return len(l.slots) }

// Emit records one event. It never blocks: when the ring is full (readers
// not draining fast enough) the event is dropped, the exact drop counter
// advances, and Emit reports false — the loss surfaces on the next drain as
// an OverflowDropped timeline event. Safe for any number of concurrent
// emitters; lock-free (one CAS per claim attempt).
func (l *Log) Emit(typ Type, shard int, a, b, c uint64) bool {
	now := time.Now().UnixNano()
	pos := l.enq.Load()
	for {
		s := &l.slots[pos&l.mask]
		seq := s.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if l.enq.CompareAndSwap(pos, pos+1) {
				s.unixNano = now
				s.typ = typ
				s.shard = int32(shard)
				s.a, s.b, s.c = a, b, c
				s.seq.Store(pos + 1)
				l.counts[typ].Add(1)
				return true
			}
			pos = l.enq.Load()
		case d < 0:
			// The drain has not freed this cell: the ring holds a full lap
			// of unread events.
			l.dropped.Add(1)
			return false
		default:
			// Another producer claimed pos but a racing enq advance hid it;
			// reload and retry at the current tail.
			pos = l.enq.Load()
		}
	}
}

// Dropped returns the exact number of emissions refused on a full ring.
func (l *Log) Dropped() uint64 { return l.dropped.Load() }

// TypeCounts returns the per-type counts of successfully recorded events
// (drops are excluded — they are counted by Dropped and surfaced as
// OverflowDropped events, which appear here once synthesized).
func (l *Log) TypeCounts() [NumTypes]uint64 {
	var out [NumTypes]uint64
	for i := range out {
		out[i] = l.counts[i].Load()
	}
	return out
}

// drain moves every published ring event into the timeline, assigning
// cursors, then surfaces any drops since the previous drain as a synthetic
// OverflowDropped event. Callers hold l.mu.
func (l *Log) drain() {
	for {
		s := &l.slots[l.deq&l.mask]
		seq := s.seq.Load()
		if int64(seq)-int64(l.deq+1) < 0 {
			break // next cell not yet published
		}
		ev := Event{
			UnixNano: s.unixNano,
			Type:     s.typ,
			Shard:    s.shard,
			A:        s.a, B: s.b, C: s.c,
		}
		s.seq.Store(l.deq + uint64(len(l.slots)))
		l.deq++
		l.append(ev)
	}
	if total := l.dropped.Load(); total > l.synced {
		fresh := total - l.synced
		l.synced = total
		l.counts[OverflowDropped].Add(1)
		l.append(Event{
			UnixNano: time.Now().UnixNano(),
			Type:     OverflowDropped,
			Shard:    -1,
			A:        fresh,
			B:        total,
		})
	}
}

// append assigns the next cursor and stores the event in the timeline ring.
// Callers hold l.mu.
func (l *Log) append(ev Event) {
	ev.Seq = l.nextSeq
	l.nextSeq++
	if len(l.timeline) < cap(l.timeline) {
		l.timeline = append(l.timeline, ev)
		return
	}
	l.timeline[(ev.Seq-1)%uint64(cap(l.timeline))] = ev
}

// Timeline drains the ring and returns up to max events with Seq > since,
// oldest first, plus the cursor to pass as the next call's since (the Seq of
// the last returned event, or since itself when nothing new). max ≤ 0 means
// no limit. Events older than the retained window are skipped — the next
// cursor still advances past them, so pagination never sticks.
func (l *Log) Timeline(since uint64, max int) ([]Event, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drain()
	last := l.nextSeq - 1 // newest retained cursor
	if last == 0 || since >= last {
		return nil, since
	}
	// Clamp the start to the retained window.
	first := uint64(1)
	if n := uint64(len(l.timeline)); last > n {
		first = last - n + 1
	}
	start := since + 1
	if start < first {
		start = first
	}
	count := int(last - start + 1)
	if max > 0 && count > max {
		count = max
	}
	out := make([]Event, count)
	for i := 0; i < count; i++ {
		seq := start + uint64(i)
		out[i] = l.timeline[(seq-1)%uint64(cap(l.timeline))]
	}
	return out, start + uint64(count) - 1
}

// Stats is a point-in-time summary of the log for snapshot embedding and
// Prometheus exposition.
type Stats struct {
	// Recorded is the total number of events that entered the timeline
	// (OverflowDropped synthetics included).
	Recorded uint64 `json:"recorded"`
	// Dropped is the exact count of emissions refused on a full ring.
	Dropped uint64 `json:"dropped"`
	// ByType maps stable type names to recorded counts (zero-count types
	// omitted).
	ByType map[string]uint64 `json:"by_type,omitempty"`
	// NextCursor is the cursor of the newest retained event — what a
	// follower would pass to Timeline to read only the future.
	NextCursor uint64 `json:"next_cursor"`
}

// Stats drains the ring and summarizes the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	l.drain()
	next := l.nextSeq - 1
	l.mu.Unlock()
	s := Stats{Dropped: l.dropped.Load(), NextCursor: next, ByType: make(map[string]uint64)}
	for i, c := range l.TypeCounts() {
		if c > 0 {
			s.ByType[Type(i).String()] = c
		}
		s.Recorded += c
	}
	return s
}
