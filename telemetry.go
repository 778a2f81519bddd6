package lcds

import (
	"fmt"
	"time"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/scheme"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
)

// TelemetryConfig configures the live observability layer (WithTelemetry):
// probe sampling, query tracing, and snapshot shape. The zero value counts
// every probe and traces nothing. See internal/telemetry for field docs.
type TelemetryConfig = telemetry.Config

// Telemetry is the live telemetry handle of a dictionary built with
// WithTelemetry: Snapshot() for the runtime Φ̂ estimate, per-step probe
// masses, latency histograms and per-shard rebuild metrics.
type Telemetry = telemetry.Telemetry

// TelemetrySnapshot is a point-in-time summary of the live telemetry.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryHistogram is a log₂-bucket histogram snapshot (latency,
// rebuild durations, writer pauses).
type TelemetryHistogram = telemetry.HistogramSnapshot

// QueryTrace is one sampled query delivered to a Tracer.
type QueryTrace = telemetry.QueryTrace

// Tracer receives sampled query traces (TelemetryConfig.Tracer).
type Tracer = telemetry.Tracer

// TelemetryDrift is the live-vs-exact contention comparison
// (TelemetryCompareExact): ratios of measured Φ̂ to the analytic Φ.
type TelemetryDrift = telemetry.Drift

// WithTelemetry enables the live observability layer on New, Read and
// NewDynamic: runtime Φ̂ estimation on striped per-cell/per-step counters,
// optional 1-in-k probe sampling, log₂ latency histograms, sampled query
// traces to a Tracer, and (dynamic dictionaries) per-shard rebuild metrics.
// Without this option no sink is installed and the query path performs zero
// additional atomic writes and zero additional allocations.
func WithTelemetry(cfg TelemetryConfig) Option {
	return func(c *opterr) {
		if cfg.Sample < 0 {
			c.err = fmt.Errorf("lcds: telemetry sample %d must be ≥ 0", cfg.Sample)
			return
		}
		cc := cfg
		c.o.telem = &cc
	}
}

// Event is one entry of the flight-recorder timeline: a typed, timestamped
// record of a structural transition (epoch seal, rebuild, per-shard
// rebuild, overflow). Payload words A/B/C are decoded per type by its JSON
// encoding.
type Event = events.Event

// EventType discriminates flight-recorder events.
type EventType = events.Type

// EventLog is the flight recorder itself: a lock-free multi-producer ring
// drained into a bounded timeline. Obtain a dictionary's log with EventLog()
// or share one across dictionaries via WithEventLog.
type EventLog = events.Log

// EventLogStats summarizes a flight recorder: events recorded and dropped,
// per-type counts, and the next timeline cursor.
type EventLogStats = events.Stats

// Flight-recorder event types. See internal/telemetry/events for the payload
// carried by each.
const (
	EventEpochSealed     = events.EpochSealed
	EventRebuildStart    = events.RebuildStart
	EventRebuildEnd      = events.RebuildEnd
	EventShardRebuild    = events.ShardRebuild
	EventOverflowDropped = events.OverflowDropped
)

// EventFailedRebuild decodes a RebuildEnd event's A word into the epoch and
// whether the rebuild failed (construction error; the old epoch stayed).
func EventFailedRebuild(a uint64) (epoch uint64, failed bool) {
	return events.FailedRebuild(a)
}

// EventLogConfig sizes the flight recorder enabled by WithEventLog. Zero
// values select the defaults (1024-slot ring, 4096-event timeline);
// capacities round up to powers of two.
type EventLogConfig struct {
	// RingCapacity bounds the lock-free staging ring event emitters write
	// into. Emission never blocks: when drains fall behind and the ring
	// fills, events are dropped and counted exactly (an OverflowDropped
	// event records each gap in the timeline).
	RingCapacity int
	// TimelineCapacity bounds the drained timeline Timeline() pages through;
	// older events fall off. Reads (Timeline, Stats, lcds-server's
	// /debug/timeline) drain the ring, so only the window between reads
	// needs to fit in RingCapacity.
	TimelineCapacity int
}

// WithEventLog enables the flight recorder on New, Read and NewDynamic: an
// always-on, lock-free timeline of structural events — epoch seals, rebuild
// start/end with durations, per-shard rebuilds — queryable with Timeline and
// served by cmd/lcds-server at /debug/timeline. Emission is a single CAS
// plus plain stores on the writer's claimed slot, off the query path
// entirely; a dictionary with only an event log queries at the same speed as
// a bare one. WithTelemetry implies an event log (its snapshot reports the
// log's stats); use WithEventLog alongside it to size the log
// explicitly or without it for events with zero query-path instrumentation.
func WithEventLog(cfg EventLogConfig) Option {
	return func(c *opterr) {
		if cfg.RingCapacity < 0 || cfg.TimelineCapacity < 0 {
			c.err = fmt.Errorf("lcds: negative event log capacity (%d, %d)", cfg.RingCapacity, cfg.TimelineCapacity)
			return
		}
		cc := cfg
		c.o.eventlog = &cc
	}
}

// EventLog returns the dictionary's flight recorder, or nil when it was
// built without WithEventLog and without WithTelemetry.
func (d *Dict) EventLog() *EventLog { return d.events }

// EventLog returns the dictionary's flight recorder, or nil when it was
// built without WithEventLog and without WithTelemetry.
func (d *DynamicDict) EventLog() *EventLog { return d.events }

// Timeline returns up to max flight-recorder events with sequence numbers
// > since, oldest first, plus the cursor to pass as the next since. Events
// that aged out of the timeline window are skipped (the cursor never
// sticks). A dictionary without an event log returns (nil, since).
func (d *Dict) Timeline(since uint64, max int) ([]Event, uint64) {
	if d.events == nil {
		return nil, since
	}
	return d.events.Timeline(since, max)
}

// Timeline returns up to max flight-recorder events with sequence numbers
// > since, oldest first, plus the next cursor. See Dict.Timeline.
func (d *DynamicDict) Timeline(since uint64, max int) ([]Event, uint64) {
	if d.events == nil {
		return nil, since
	}
	return d.events.Timeline(since, max)
}

// Telemetry returns the dictionary's live telemetry handle, or nil when it
// was built without WithTelemetry.
func (d *Dict) Telemetry() *Telemetry { return d.tel }

// Telemetry returns the dictionary's live telemetry handle, or nil when it
// was built without WithTelemetry.
func (d *DynamicDict) Telemetry() *Telemetry { return d.tel }

// TelemetryCompareExact diffs the live telemetry snapshot against the exact
// offline contention analysis under uniform queries over keys (pass the
// stored key set for the paper's uniform-positive distribution) — the
// theory-vs-runtime self-check. It errors when the dictionary was built
// without WithTelemetry or keys is empty.
func (d *Dict) TelemetryCompareExact(keys []uint64) (TelemetryDrift, error) {
	if len(keys) == 0 {
		return TelemetryDrift{}, fmt.Errorf("lcds: telemetry comparison needs a non-empty key set")
	}
	return d.TelemetryCompareExactWeighted(uniformWeights(keys))
}

// TelemetryCompareExactWeighted is TelemetryCompareExact under an arbitrary
// query distribution: the exact analysis is computed under the given
// weighted support — pass the same weights the live workload draws from
// (e.g. Scenario.Support of internal/workload, or any Supporter's
// Support) and the drift ratios read 1.0 exactly when the running system
// matches Definition 1 under that skew. Weights are normalized; duplicate
// keys merge.
func (d *Dict) TelemetryCompareExactWeighted(support []WeightedKey) (TelemetryDrift, error) {
	if d.tel == nil {
		return TelemetryDrift{}, fmt.Errorf("lcds: telemetry is not enabled (use WithTelemetry)")
	}
	res, err := exactWeighted(d.structure(), support)
	if err != nil {
		return TelemetryDrift{}, err
	}
	if d.sharded != nil {
		res.StepMass = d.sharded.FoldStepMass(res.StepMass)
	}
	return d.tel.Snapshot().CompareExact(res), nil
}

// TelemetryCompareExact diffs the dynamic dictionary's live telemetry
// against the exact analysis of the current epoch's static snapshot under
// uniform queries over keys. The comparison is confined to the static step
// range (Snapshot.CompareExactSteps): the live counters also carry the
// update buffer's probes at offset steps, which the static analysis never
// models. Dynamic telemetry is cell-agnostic, so MaxPhiLive/MaxPhiRatio are
// zero; the meaningful signals are the probes ratio and the step-mass gap.
// Sharded dynamic dictionaries do not support the comparison (each shard
// rebuilds on its own schedule, so there is no single static structure to
// analyze); quiesce before comparing so no rebuild swaps the snapshot.
func (d *DynamicDict) TelemetryCompareExact(keys []uint64) (TelemetryDrift, error) {
	if len(keys) == 0 {
		return TelemetryDrift{}, fmt.Errorf("lcds: telemetry comparison needs a non-empty key set")
	}
	return d.TelemetryCompareExactWeighted(uniformWeights(keys))
}

// TelemetryCompareExactWeighted is the dynamic TelemetryCompareExact under
// an arbitrary weighted support. See the uniform variant for the dynamic
// caveats (static-range comparison, cell-agnostic live side).
func (d *DynamicDict) TelemetryCompareExactWeighted(support []WeightedKey) (TelemetryDrift, error) {
	if d.tel == nil {
		return TelemetryDrift{}, fmt.Errorf("lcds: telemetry is not enabled (use WithTelemetry)")
	}
	if d.sharded != nil {
		return TelemetryDrift{}, fmt.Errorf("lcds: sharded dynamic dictionaries do not support the exact comparison")
	}
	base := d.inner.Base()
	res, err := exactWeighted(base, support)
	if err != nil {
		return TelemetryDrift{}, err
	}
	return d.tel.Snapshot().CompareExactSteps(res, base.MaxProbes()), nil
}

// exactWeighted runs the exact contention analysis under a caller-supplied
// weighted support, normalized first.
func exactWeighted(s scheme.Scheme, support []WeightedKey) (contention.ExactResult, error) {
	w := make([]dist.Weighted, len(support))
	for i, p := range support {
		w[i] = dist.Weighted{Key: p.Key, P: p.P}
	}
	norm, err := contention.NormalizeSupport(w)
	if err != nil {
		return contention.ExactResult{}, fmt.Errorf("lcds: %w", err)
	}
	return contention.Exact(s, norm)
}

// uniformWeights lifts a key set to the uniform weighted support over it.
func uniformWeights(keys []uint64) []WeightedKey {
	w := 1.0 / float64(len(keys))
	out := make([]WeightedKey, len(keys))
	for i, k := range keys {
		out[i] = WeightedKey{Key: k, P: w}
	}
	return out
}

// installTelemetry builds the telemetry instance for a freshly constructed
// static dictionary and installs it as the table's probe sink (before the
// dictionary is returned to the caller, so installation cannot race a
// query). Sharded composites get per-shard cell ranges — plus the routing
// row — as snapshot views.
func (d *Dict) installTelemetry(cfg telemetry.Config) {
	tab := d.structure().Table()
	if d.sharded != nil && len(cfg.Ranges) == 0 {
		cfg.Ranges = append(cfg.Ranges, telemetry.Range{Name: "route", Start: 0, Cells: d.sharded.RouteWidth()})
		for i := 0; i < d.sharded.Shards(); i++ {
			cfg.Ranges = append(cfg.Ranges, telemetry.Range{
				Name:  fmt.Sprintf("shard%d", i),
				Start: d.sharded.CellOffset(i),
				Cells: d.sharded.Shard(i).Table().Size(),
			})
		}
	}
	d.tel = telemetry.New(cfg, tab.Size(), d.structure().N())
	tab.SetSink(d.tel)
}

// keyHash obscures a queried key in traces (splitmix64 finalizer): traces
// may be exposed on debug endpoints and must not leak the keyset.
func keyHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// lookupTelemetry is Lookup's instrumented twin: latency timing, outcome
// counting, and — for the 1-in-TraceEvery sampled queries — per-step probe
// capture into the trace ring. Probe counting itself happens in the table
// sink, not here.
func (d *Dict) lookupTelemetry(x uint64) (bool, error) {
	start := time.Now()
	traced := d.tel.ShouldTrace()
	var (
		ok    bool
		err   error
		shard int
		cells []int32
	)
	switch {
	case traced:
		sc := d.scratch.Get().(*core.QueryScratch)
		sc.StartCapture()
		if d.sharded != nil {
			ok, shard, err = d.sharded.ContainsTraced(x, d.src, sc)
		} else {
			ok, err = d.inner.ContainsScratch(x, d.src, sc)
		}
		log := sc.StopCapture()
		cells = make([]int32, len(log))
		copy(cells, log)
		if d.sharded != nil {
			// Translate shard-local cell indices into the composite table's
			// flat space. (The routing probe itself is not captured.)
			off := int32(d.sharded.CellOffset(shard))
			for i := range cells {
				if cells[i] >= 0 {
					cells[i] += off
				}
			}
		}
		d.scratch.Put(sc)
	case d.sharded != nil:
		ok, err = d.sharded.Contains(x, d.src)
	default:
		sc := d.scratch.Get().(*core.QueryScratch)
		ok, err = d.inner.ContainsScratch(x, d.src, sc)
		d.scratch.Put(sc)
	}
	lat := time.Since(start).Nanoseconds()
	d.tel.ObserveQuery(ok, err != nil, lat)
	if traced {
		d.tel.Emit(telemetry.QueryTrace{
			KeyHash: keyHash(x), Shard: shard, Steps: len(cells), Cells: cells,
			Found: ok, Err: err != nil, LatencyNs: lat, UnixNano: time.Now().UnixNano(),
		})
	}
	return ok, err
}

// containsTelemetry is the DynamicDict analogue of lookupTelemetry. Dynamic
// telemetry is cell-agnostic (tables are replaced every epoch), so traces
// carry the static snapshot's local cell indices for context, not stable
// composite addresses.
func (d *DynamicDict) containsTelemetry(x uint64) (bool, error) {
	start := time.Now()
	traced := d.tel.ShouldTrace()
	var (
		ok    bool
		err   error
		shard int
		cells []int32
	)
	if traced {
		sc := d.scratch.Get().(*core.QueryScratch)
		sc.StartCapture()
		if d.sharded != nil {
			ok, shard, err = d.sharded.ContainsTraced(x, d.src, sc)
		} else {
			ok, err = d.inner.ContainsScratch(x, d.src, sc)
		}
		log := sc.StopCapture()
		cells = make([]int32, len(log))
		copy(cells, log)
		d.scratch.Put(sc)
	} else if d.sharded != nil {
		ok, err = d.sharded.Contains(x, d.src)
	} else {
		ok, err = d.inner.Contains(x, d.src)
	}
	lat := time.Since(start).Nanoseconds()
	d.tel.ObserveQuery(ok, err != nil, lat)
	if traced {
		d.tel.Emit(telemetry.QueryTrace{
			KeyHash: keyHash(x), Shard: shard, Steps: len(cells), Cells: cells,
			Found: ok, Err: err != nil, LatencyNs: lat, UnixNano: time.Now().UnixNano(),
		})
	}
	return ok, err
}

// observeBatch records one batch completion on the telemetry layer, counting
// hits from the answered prefix.
func observeBatch(tel *telemetry.Telemetry, out []bool, n int, err error, start time.Time) {
	hits := 0
	if err == nil {
		for _, ok := range out[:n] {
			if ok {
				hits++
			}
		}
	}
	tel.ObserveBatch(n, hits, err != nil, time.Since(start).Nanoseconds())
}
