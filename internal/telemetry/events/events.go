// Package events is the dictionary's flight recorder: an always-on record
// of the structural moments the gauge-style telemetry cannot reconstruct
// after the fact — when an epoch's buffer sealed, how long each rebuild ran
// and how many keys it carried, and which shard of a sharded composite
// rebuilt.
//
// # Design
//
// Every emitter is a dynamic dictionary's rebuild path, which emits at most
// four events per rebuild while holding its own mutex, so the log is a
// plain mutex-guarded ring: Emit locks, stamps the event, assigns it the
// next global monotone sequence number and appends it to a timeline of the
// newest 4096 events. An emission is never refused; the oldest event ages
// out instead. Timeline(since, max) serves any suffix of the retained
// window by cursor, which is what gives lcds-server's /debug/timeline
// endpoint stateless pagination.
//
// The package depends only on the standard library, so every layer of the
// repository — internal/dynamic, internal/shard, internal/telemetry — can
// emit into one shared log without import cycles.
package events

import (
	"encoding/json"
	"fmt"
	"sync"
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
	// ShardRebuild: one shard of a sharded composite published a rebuild
	// (emitted alongside RebuildEnd so composite-level consumers can watch
	// shard churn without decoding per-shard streams). A = epoch, B = keys,
	// C = duration in nanoseconds.
	ShardRebuild

	// NumTypes is the number of event types (for per-type counter arrays).
	NumTypes = int(ShardRebuild) + 1
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
	EpochSealed:  "epoch_sealed",
	RebuildStart: "rebuild_start",
	RebuildEnd:   "rebuild_end",
	ShardRebuild: "shard_rebuild",
}

// String returns the stable wire name of the type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type_%d", int(t))
}

// Event is one recorded moment. Seq is the global timeline cursor assigned
// at emission (monotone from 1, no gaps among retained events); A, B and C
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
	case ShardRebuild:
		m["epoch"] = e.A
		m["keys"] = e.B
		m["duration_ns"] = e.C
	}
	return json.Marshal(m)
}

// Log is the flight recorder: a mutex-guarded timeline ring with global
// cursors and per-type counts. Emit is safe for any number of concurrent
// callers.
type Log struct {
	mu       sync.Mutex
	timeline []Event // retained window, a ring over nextSeq
	nextSeq  uint64  // sequence number of the next event (from 1)
	counts   [NumTypes]uint64
}

// timelineCapacity is the retained-history window of NewLog.
const timelineCapacity = 4096

// NewLog creates a flight recorder retaining the newest 4096 events.
func NewLog() *Log { return newLog(timelineCapacity) }

// newLog creates a flight recorder retaining the newest capacity events.
func newLog(capacity int) *Log {
	return &Log{timeline: make([]Event, 0, capacity), nextSeq: 1}
}

// Emit records one event: it stamps the time, assigns the next cursor and
// appends to the timeline, evicting the oldest event once the window is
// full.
func (l *Log) Emit(typ Type, shard int, a, b, c uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := Event{Seq: l.nextSeq, UnixNano: time.Now().UnixNano(), Type: typ, Shard: int32(shard), A: a, B: b, C: c}
	l.nextSeq++
	l.counts[typ]++
	if len(l.timeline) < cap(l.timeline) {
		l.timeline = append(l.timeline, ev)
		return
	}
	l.timeline[(ev.Seq-1)%uint64(cap(l.timeline))] = ev
}

// Timeline returns up to max events with Seq > since, oldest first, plus the
// cursor to pass as the next call's since (the Seq of the last returned
// event, or since itself when nothing new). max ≤ 0 means no limit. Events
// older than the retained window are skipped — the next cursor still
// advances past them, so pagination never sticks.
func (l *Log) Timeline(since uint64, max int) ([]Event, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
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
	for i := range out {
		seq := start + uint64(i)
		out[i] = l.timeline[(seq-1)%uint64(cap(l.timeline))]
	}
	return out, start + uint64(count) - 1
}

// Stats is a point-in-time summary of the log for snapshot embedding and
// Prometheus exposition.
type Stats struct {
	// Recorded is the total number of events emitted.
	Recorded uint64 `json:"recorded"`
	// ByType maps stable type names to recorded counts (zero-count types
	// omitted).
	ByType map[string]uint64 `json:"by_type,omitempty"`
	// NextCursor is the cursor of the newest retained event — what a
	// follower would pass to Timeline to read only the future.
	NextCursor uint64 `json:"next_cursor"`
}

// Stats summarizes the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{NextCursor: l.nextSeq - 1, ByType: make(map[string]uint64)}
	for i, c := range l.counts {
		if c > 0 {
			s.ByType[Type(i).String()] = c
		}
		s.Recorded += c
	}
	return s
}
