//go:build otlp

package otlp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
)

// Config tunes an Exporter. Only Endpoint is required.
type Config struct {
	// Endpoint is the OTLP/HTTP base URL (e.g. http://localhost:4318):
	// metrics post to Endpoint/v1/metrics, spans to Endpoint/v1/traces.
	Endpoint string
	// Service is the resource's service.name attribute. Default "lcds".
	Service string
	// Client is the HTTP client used for posts. Default http.DefaultClient.
	Client *http.Client
}

// Exporter posts telemetry snapshots and flight-recorder events to an
// OTLP/HTTP collector. Methods are safe for concurrent use (the exporter
// itself is stateless; each call marshals and posts one request).
type Exporter struct {
	cfg Config
}

// New creates an exporter. It errors on an empty endpoint.
func New(cfg Config) (*Exporter, error) {
	if cfg.Endpoint == "" {
		return nil, fmt.Errorf("otlp: empty endpoint")
	}
	if cfg.Service == "" {
		cfg.Service = "lcds"
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	return &Exporter{cfg: cfg}, nil
}

// --- OTLP 1.x JSON schema (the subset this exporter emits) ---
//
// uint64 fields ride as strings, per the OTLP JSON mapping; timestamps are
// nanoseconds since the Unix epoch.

type anyValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"`
	DoubleValue *float64 `json:"doubleValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
}

type keyValue struct {
	Key   string   `json:"key"`
	Value anyValue `json:"value"`
}

func strAttr(k, v string) keyValue { return keyValue{Key: k, Value: anyValue{StringValue: &v}} }
func boolAttr(k string, v bool) keyValue {
	return keyValue{Key: k, Value: anyValue{BoolValue: &v}}
}
func intAttr(k string, v int64) keyValue {
	s := strconv.FormatInt(v, 10)
	return keyValue{Key: k, Value: anyValue{IntValue: &s}}
}

type numberPoint struct {
	TimeUnixNano string     `json:"timeUnixNano"`
	AsDouble     *float64   `json:"asDouble,omitempty"`
	AsInt        *string    `json:"asInt,omitempty"`
	Attributes   []keyValue `json:"attributes,omitempty"`
}

type gaugeData struct {
	DataPoints []numberPoint `json:"dataPoints"`
}

type sumData struct {
	DataPoints             []numberPoint `json:"dataPoints"`
	AggregationTemporality int           `json:"aggregationTemporality"` // 2 = cumulative
	IsMonotonic            bool          `json:"isMonotonic"`
}

type histogramPoint struct {
	TimeUnixNano   string    `json:"timeUnixNano"`
	Count          string    `json:"count"`
	Sum            float64   `json:"sum"`
	BucketCounts   []string  `json:"bucketCounts"`
	ExplicitBounds []float64 `json:"explicitBounds"`
}

type histogramData struct {
	DataPoints             []histogramPoint `json:"dataPoints"`
	AggregationTemporality int              `json:"aggregationTemporality"`
}

type metric struct {
	Name      string         `json:"name"`
	Unit      string         `json:"unit,omitempty"`
	Gauge     *gaugeData     `json:"gauge,omitempty"`
	Sum       *sumData       `json:"sum,omitempty"`
	Histogram *histogramData `json:"histogram,omitempty"`
}

type resource struct {
	Attributes []keyValue `json:"attributes"`
}

type scope struct {
	Name string `json:"name"`
}

type scopeMetrics struct {
	Scope   scope    `json:"scope"`
	Metrics []metric `json:"metrics"`
}

type resourceMetrics struct {
	Resource     resource       `json:"resource"`
	ScopeMetrics []scopeMetrics `json:"scopeMetrics"`
}

type metricsRequest struct {
	ResourceMetrics []resourceMetrics `json:"resourceMetrics"`
}

// Span is one OTLP span (exported for tests and for callers that stage
// spans before posting).
type Span struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind"` // 1 = SPAN_KIND_INTERNAL
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []keyValue `json:"attributes,omitempty"`
}

type scopeSpans struct {
	Scope scope  `json:"scope"`
	Spans []Span `json:"spans"`
}

type resourceSpans struct {
	Resource   resource     `json:"resource"`
	ScopeSpans []scopeSpans `json:"scopeSpans"`
}

type tracesRequest struct {
	ResourceSpans []resourceSpans `json:"resourceSpans"`
}

func (e *Exporter) resource() resource {
	return resource{Attributes: []keyValue{strAttr("service.name", e.cfg.Service)}}
}

func (e *Exporter) post(path string, body any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("otlp: marshal: %w", err)
	}
	resp, err := e.cfg.Client.Post(e.cfg.Endpoint+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("otlp: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("otlp: POST %s: %s", path, resp.Status)
	}
	return nil
}

// gaugeMetric builds a single-point double gauge.
func gaugeMetric(name string, v float64, now string) metric {
	return metric{Name: name, Gauge: &gaugeData{DataPoints: []numberPoint{{TimeUnixNano: now, AsDouble: &v}}}}
}

// sumPoint builds one cumulative-sum data point.
func sumPoint(v uint64, now string, attrs ...keyValue) numberPoint {
	s := strconv.FormatUint(v, 10)
	return numberPoint{TimeUnixNano: now, AsInt: &s, Attributes: attrs}
}

// counterMetric builds a single-point cumulative monotonic counter.
func counterMetric(name string, v uint64, now string) metric {
	return metric{Name: name, Sum: &sumData{
		DataPoints: []numberPoint{sumPoint(v, now)}, AggregationTemporality: 2, IsMonotonic: true,
	}}
}

// histogramMetric converts a log₂ LogHistogram snapshot into an OTLP
// histogram with explicit power-of-two bounds: bucket k of the snapshot
// covers [2^(k-1), 2^k), so its OTLP upper bound is 2^k.
func histogramMetric(name string, h telemetry.HistogramSnapshot, now string) metric {
	bounds := make([]float64, len(h.Buckets))
	counts := make([]string, len(h.Buckets)+1)
	for k, c := range h.Buckets {
		bounds[k] = float64(telemetry.BucketUpper(k))
		counts[k] = strconv.FormatUint(c, 10)
	}
	counts[len(h.Buckets)] = "0" // overflow bucket: log₂ buckets cover all of uint64
	return metric{Name: name, Unit: "ns", Histogram: &histogramData{
		AggregationTemporality: 2,
		DataPoints: []histogramPoint{{
			TimeUnixNano: now, Count: strconv.FormatUint(h.Count, 10),
			Sum: float64(h.Sum), BucketCounts: counts, ExplicitBounds: bounds,
		}},
	}}
}

// Metrics maps a telemetry snapshot onto OTLP metrics: the headline
// contention gauges, the query/probe counters, per-event-type counts and
// the latency histograms. Exported for tests; ExportSnapshot posts it.
func Metrics(s telemetry.Snapshot, nowUnixNano int64) []metric {
	now := strconv.FormatInt(nowUnixNano, 10)
	ms := []metric{
		gaugeMetric("lcds.max_phi", s.MaxPhi, now),
		gaugeMetric("lcds.max_phi_n", s.MaxPhiN, now),
		gaugeMetric("lcds.probes_per_query", s.ProbesPerQuery, now),
		gaugeMetric("lcds.keys", float64(s.N), now),
		gaugeMetric("lcds.cells", float64(s.Cells), now),
		counterMetric("lcds.queries", s.Queries, now),
		counterMetric("lcds.hits", s.Hits, now),
		counterMetric("lcds.misses", s.Misses, now),
		counterMetric("lcds.errors", s.Errors, now),
		counterMetric("lcds.probes", s.Probes, now),
		histogramMetric("lcds.latency", s.Latency, now),
		histogramMetric("lcds.batch_latency", s.BatchLatency, now),
	}
	if len(s.Events.ByType) > 0 {
		pts := make([]numberPoint, 0, len(s.Events.ByType))
		for ty := events.Type(0); int(ty) < events.NumTypes; ty++ {
			if c, ok := s.Events.ByType[ty.String()]; ok {
				pts = append(pts, sumPoint(c, now, strAttr("type", ty.String())))
			}
		}
		ms = append(ms, metric{Name: "lcds.events", Sum: &sumData{
			DataPoints: pts, AggregationTemporality: 2, IsMonotonic: true,
		}})
	}
	return ms
}

// ExportSnapshot posts a telemetry snapshot to Endpoint/v1/metrics.
func (e *Exporter) ExportSnapshot(s telemetry.Snapshot) error {
	req := metricsRequest{ResourceMetrics: []resourceMetrics{{
		Resource:     e.resource(),
		ScopeMetrics: []scopeMetrics{{Scope: scope{Name: "lcds"}, Metrics: Metrics(s, time.Now().UnixNano())}},
	}}}
	return e.post("/v1/metrics", req)
}

// mix is the splitmix64 finalizer, used to derive deterministic span
// identifiers from event coordinates.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hex64(x uint64) string { return fmt.Sprintf("%016x", x) }
func hex128(hi, lo uint64) string {
	return fmt.Sprintf("%016x%016x", hi, lo)
}

// BuildSpans converts a flight-recorder timeline into OTLP spans: every
// RebuildStart/RebuildEnd pair on the same shard becomes a "rebuild" span.
// Identifiers derive deterministically from (shard, epoch), so re-exporting
// an overlapping timeline window produces the same span IDs and collectors
// deduplicate instead of double-counting. Unpaired starts (a rebuild still
// in flight) are held back until a later window closes them.
func BuildSpans(evs []events.Event) []Span {
	var out []Span
	openRebuild := map[int32]events.Event{}
	for _, ev := range evs {
		switch ev.Type {
		case events.RebuildStart:
			openRebuild[ev.Shard] = ev
		case events.RebuildEnd:
			start, ok := openRebuild[ev.Shard]
			if !ok {
				continue
			}
			delete(openRebuild, ev.Shard)
			epoch, failed := events.FailedRebuild(ev.A)
			id := mix(uint64(ev.Shard)<<32 ^ epoch ^ 0x8eb01d)
			out = append(out, Span{
				TraceID:           hex128(mix(uint64(ev.Shard)+1), epoch),
				SpanID:            hex64(id),
				Name:              "rebuild",
				Kind:              1,
				StartTimeUnixNano: strconv.FormatInt(start.UnixNano, 10),
				EndTimeUnixNano:   strconv.FormatInt(ev.UnixNano, 10),
				Attributes: []keyValue{
					intAttr("lcds.shard", int64(ev.Shard)),
					intAttr("lcds.epoch", int64(epoch)),
					intAttr("lcds.keys", int64(ev.B)),
					boolAttr("lcds.failed", failed),
				},
			})
		}
	}
	return out
}

// ExportEvents posts the spans BuildSpans derives from a timeline window to
// Endpoint/v1/traces. A window with no completed rebuilds posts
// nothing and returns nil.
func (e *Exporter) ExportEvents(evs []events.Event) error {
	spans := BuildSpans(evs)
	if len(spans) == 0 {
		return nil
	}
	return e.postSpans(spans)
}

func (e *Exporter) postSpans(spans []Span) error {
	req := tracesRequest{ResourceSpans: []resourceSpans{{
		Resource:   e.resource(),
		ScopeSpans: []scopeSpans{{Scope: scope{Name: "lcds"}, Spans: spans}},
	}}}
	return e.post("/v1/traces", req)
}

// SpanTracer adapts the exporter to telemetry.Tracer: every sampled query
// trace becomes a "query" span, buffered and posted in batches of the
// configured size. Install it via telemetry.Config.Tracer. Trace never
// blocks the query that produced it beyond one buffered append except on
// the flush boundary, where the posting goroutine is the tracing one.
type SpanTracer struct {
	exp   *Exporter
	limit int

	mu      sync.Mutex
	buf     []Span
	lastErr error
}

// NewSpanTracer creates a tracer flushing every limit traces (≤ 0 selects
// 64).
func (e *Exporter) NewSpanTracer(limit int) *SpanTracer {
	if limit <= 0 {
		limit = 64
	}
	return &SpanTracer{exp: e, limit: limit, buf: make([]Span, 0, limit)}
}

// Trace implements telemetry.Tracer.
func (t *SpanTracer) Trace(qt telemetry.QueryTrace) {
	id := mix(qt.KeyHash ^ uint64(qt.UnixNano))
	sp := Span{
		TraceID:           hex128(mix(uint64(qt.UnixNano)), qt.KeyHash),
		SpanID:            hex64(id),
		Name:              "query",
		Kind:              1,
		StartTimeUnixNano: strconv.FormatInt(qt.UnixNano-qt.LatencyNs, 10),
		EndTimeUnixNano:   strconv.FormatInt(qt.UnixNano, 10),
		Attributes: []keyValue{
			intAttr("lcds.key_hash", int64(qt.KeyHash)),
			intAttr("lcds.shard", int64(qt.Shard)),
			intAttr("lcds.steps", int64(qt.Steps)),
			boolAttr("lcds.found", qt.Found),
		},
	}
	t.mu.Lock()
	t.buf = append(t.buf, sp)
	var flush []Span
	if len(t.buf) >= t.limit {
		flush = t.buf
		t.buf = make([]Span, 0, t.limit)
	}
	t.mu.Unlock()
	if flush != nil {
		if err := t.exp.postSpans(flush); err != nil {
			t.mu.Lock()
			t.lastErr = err
			t.mu.Unlock()
		}
	}
}

// Flush posts any buffered query spans and returns the most recent export
// error (cleared by the call).
func (t *SpanTracer) Flush() error {
	t.mu.Lock()
	flush := t.buf
	t.buf = make([]Span, 0, t.limit)
	err := t.lastErr
	t.lastErr = nil
	t.mu.Unlock()
	if len(flush) > 0 {
		if perr := t.exp.postSpans(flush); perr != nil {
			return perr
		}
	}
	return err
}
