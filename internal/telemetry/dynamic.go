package telemetry

import (
	"sync/atomic"

	"repro/internal/cellprobe"
)

// DynamicMetrics is the rebuild- and write-side telemetry of one dynamic
// dictionary (one shard of a sharded dynamic composite, or the whole
// dictionary when unsharded): epoch publishes, rebuild durations, writer
// pauses at the buffer hard cap, the buffered-delta depth, and the
// lock-free write path's per-claim probe and CAS-retry counts. All methods
// are safe for any number of concurrent callers; WriteClaim in particular
// is invoked from the mutex-free claim-slot path by every writer, so its
// counters are striped per goroutine rather than shared words.
type DynamicMetrics struct {
	shard int

	rebuilds    atomic.Uint64 // epochs published (successful rebuilds)
	rebuildKeys atomic.Uint64 // keys rebuilt into published epochs, cumulative
	failures    atomic.Uint64 // rebuild attempts that errored

	deltaDepth atomic.Int64  // current buffered-delta depth
	deltaHigh  atomic.Uint64 // high-water delta depth since start

	claimProbes *cellprobe.StripedCounter // probes issued by claim walks
	casRetries  *cellprobe.StripedCounter // claim CASes lost to racing writers

	rebuildNs *LogHistogram // duration of each background/sync rebuild
	pauseNs   *LogHistogram // writer stalls waiting at the buffer hard cap
}

// NewDynamicMetrics creates the metrics slot for one shard.
func NewDynamicMetrics(shard int) *DynamicMetrics {
	return &DynamicMetrics{
		shard:       shard,
		claimProbes: cellprobe.NewStripedCounter(),
		casRetries:  cellprobe.NewStripedCounter(),
		rebuildNs:   NewLogHistogram(),
		pauseNs:     NewLogHistogram(),
	}
}

// RebuildDone records a completed rebuild that published an epoch of n
// keys after durationNs nanoseconds.
func (m *DynamicMetrics) RebuildDone(n int, durationNs int64) {
	m.rebuilds.Add(1)
	m.rebuildKeys.Add(uint64(n))
	m.rebuildNs.Observe(uint64(durationNs))
}

// RebuildFailed records a rebuild attempt that ended in error.
func (m *DynamicMetrics) RebuildFailed(durationNs int64) {
	m.failures.Add(1)
	m.rebuildNs.Observe(uint64(durationNs))
}

// WriterPaused records one writer stall of pauseNs nanoseconds spent
// blocked at the buffer occupancy hard cap.
func (m *DynamicMetrics) WriterPaused(pauseNs int64) {
	m.pauseNs.Observe(uint64(pauseNs))
}

// WriteClaim records one completed claim walk of the lock-free write path:
// the probes it issued and the CAS races it lost. Called concurrently by
// every writer; both counters land on per-goroutine stripes.
func (m *DynamicMetrics) WriteClaim(probes, casRetries uint64) {
	m.claimProbes.Add(probes)
	if casRetries > 0 {
		m.casRetries.Add(casRetries)
	}
}

// SetDeltaDepth publishes the current buffered-delta depth and maintains
// the high-water mark.
func (m *DynamicMetrics) SetDeltaDepth(depth int) {
	m.deltaDepth.Store(int64(depth))
	for {
		hi := m.deltaHigh.Load()
		if uint64(depth) <= hi || m.deltaHigh.CompareAndSwap(hi, uint64(depth)) {
			return
		}
	}
}

// DynamicSnapshot is a point-in-time read of one shard's rebuild and
// write-path metrics.
type DynamicSnapshot struct {
	Shard          int               `json:"shard"`
	Rebuilds       uint64            `json:"rebuilds"`
	RebuildKeys    uint64            `json:"rebuild_keys"`
	RebuildFails   uint64            `json:"rebuild_fails"`
	DeltaDepth     int64             `json:"delta_depth"`
	DeltaHighWater uint64            `json:"delta_high_water"`
	ClaimProbes    uint64            `json:"claim_probes"`
	CASRetries     uint64            `json:"cas_retries"`
	RebuildNs      HistogramSnapshot `json:"rebuild_ns"`
	WriterPauseNs  HistogramSnapshot `json:"writer_pause_ns"`
}

// Snapshot reads the metrics.
func (m *DynamicMetrics) Snapshot() DynamicSnapshot {
	return DynamicSnapshot{
		Shard:          m.shard,
		Rebuilds:       m.rebuilds.Load(),
		RebuildKeys:    m.rebuildKeys.Load(),
		RebuildFails:   m.failures.Load(),
		DeltaDepth:     m.deltaDepth.Load(),
		DeltaHighWater: m.deltaHigh.Load(),
		ClaimProbes:    m.claimProbes.Sum(),
		CASRetries:     m.casRetries.Sum(),
		RebuildNs:      m.rebuildNs.Snapshot(),
		WriterPauseNs:  m.pauseNs.Snapshot(),
	}
}
