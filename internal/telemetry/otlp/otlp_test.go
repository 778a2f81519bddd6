//go:build otlp

package otlp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
)

// collector is a fake OTLP/HTTP endpoint capturing posted bodies by path.
type collector struct {
	srv    *httptest.Server
	bodies map[string][]string
}

func newCollector() *collector {
	c := &collector{bodies: make(map[string][]string)}
	c.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		c.bodies[r.URL.Path] = append(c.bodies[r.URL.Path], string(body))
		w.WriteHeader(http.StatusOK)
	}))
	return c
}

// TestExportSnapshot drives a real telemetry instance and checks the posted
// /v1/metrics document is valid OTLP JSON carrying the expected series.
func TestExportSnapshot(t *testing.T) {
	c := newCollector()
	defer c.srv.Close()
	exp, err := New(Config{Endpoint: c.srv.URL})
	if err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New(telemetry.Config{}, 64, 16)
	for i := 0; i < 500; i++ {
		tel.ProbeObserved(0, i%64)
		tel.ObserveQuery(true, false, 100)
	}
	tel.Events().Emit(events.RebuildStart, 0, 1, 16, 0)
	if err := exp.ExportSnapshot(tel.Snapshot()); err != nil {
		t.Fatal(err)
	}

	posts := c.bodies["/v1/metrics"]
	if len(posts) != 1 {
		t.Fatalf("%d metric posts, want 1", len(posts))
	}
	var req metricsRequest
	if err := json.Unmarshal([]byte(posts[0]), &req); err != nil {
		t.Fatalf("invalid OTLP JSON: %v", err)
	}
	if len(req.ResourceMetrics) != 1 {
		t.Fatalf("resourceMetrics count %d", len(req.ResourceMetrics))
	}
	rm := req.ResourceMetrics[0]
	if got := *rm.Resource.Attributes[0].Value.StringValue; got != "lcds" {
		t.Fatalf("service.name = %q", got)
	}
	names := map[string]metric{}
	for _, m := range rm.ScopeMetrics[0].Metrics {
		names[m.Name] = m
	}
	for _, want := range []string{"lcds.queries", "lcds.probes", "lcds.max_phi_n",
		"lcds.sampling_k", "lcds.latency", "lcds.events"} {
		if _, ok := names[want]; !ok {
			t.Errorf("metrics missing %s", want)
		}
	}
	if q := names["lcds.queries"]; *q.Sum.DataPoints[0].AsInt != "500" {
		t.Errorf("lcds.queries = %s, want 500", *q.Sum.DataPoints[0].AsInt)
	}
	lat := names["lcds.latency"].Histogram.DataPoints[0]
	if lat.Count != "500" || len(lat.BucketCounts) != len(lat.ExplicitBounds)+1 {
		t.Errorf("latency histogram malformed: count=%s buckets=%d bounds=%d",
			lat.Count, len(lat.BucketCounts), len(lat.ExplicitBounds))
	}
	ev := names["lcds.events"]
	if len(ev.Sum.DataPoints) == 0 || !ev.Sum.IsMonotonic {
		t.Errorf("event counter malformed: %+v", ev.Sum)
	}
}

// TestBuildSpans checks the event-to-span pairing: rebuilds become spans
// with deterministic IDs; unpaired starts are held.
func TestBuildSpans(t *testing.T) {
	evs := []events.Event{
		{Seq: 1, UnixNano: 1000, Type: events.RebuildStart, Shard: 0, A: 2, B: 100},
		{Seq: 3, UnixNano: 2000, Type: events.RebuildEnd, Shard: 0, A: 2, B: 100, C: 1000},
		{Seq: 4, UnixNano: 2500, Type: events.RebuildStart, Shard: 1, A: 2, B: 50},
		{Seq: 6, UnixNano: 3500, Type: events.RebuildEnd, Shard: 0, A: events.MarkFailed(3), B: 90},
	}
	spans := BuildSpans(evs)
	// shard 0 rebuild epoch 2, failed rebuild 3 (no second start for shard
	// 0, so the failed end is dropped); shard 1's start never ends.
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1: %+v", len(spans), spans)
	}
	if spans[0].Name != "rebuild" || spans[0].StartTimeUnixNano != "1000" || spans[0].EndTimeUnixNano != "2000" {
		t.Fatalf("rebuild span wrong: %+v", spans[0])
	}
	if len(spans[0].SpanID) != 16 || len(spans[0].TraceID) != 32 {
		t.Fatalf("span IDs not 8/16 bytes hex: %q %q", spans[0].SpanID, spans[0].TraceID)
	}
	// Determinism: same window re-exported produces identical IDs.
	again := BuildSpans(evs)
	if again[0].SpanID != spans[0].SpanID || again[0].TraceID != spans[0].TraceID {
		t.Fatal("span IDs not deterministic across re-export")
	}
}

// TestExportEvents posts a rebuild pair and checks the /v1/traces document.
func TestExportEvents(t *testing.T) {
	c := newCollector()
	defer c.srv.Close()
	exp, err := New(Config{Endpoint: c.srv.URL, Service: "custom"})
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.ExportEvents(nil); err != nil {
		t.Fatalf("empty window should post nothing: %v", err)
	}
	if len(c.bodies["/v1/traces"]) != 0 {
		t.Fatal("empty window posted")
	}
	evs := []events.Event{
		{Seq: 1, UnixNano: 10, Type: events.RebuildStart, Shard: 0, A: 1, B: 5},
		{Seq: 2, UnixNano: 20, Type: events.RebuildEnd, Shard: 0, A: 1, B: 5, C: 10},
	}
	if err := exp.ExportEvents(evs); err != nil {
		t.Fatal(err)
	}
	var req tracesRequest
	if err := json.Unmarshal([]byte(c.bodies["/v1/traces"][0]), &req); err != nil {
		t.Fatalf("invalid OTLP JSON: %v", err)
	}
	if got := *req.ResourceSpans[0].Resource.Attributes[0].Value.StringValue; got != "custom" {
		t.Fatalf("service.name = %q", got)
	}
	if len(req.ResourceSpans[0].ScopeSpans[0].Spans) != 1 {
		t.Fatal("expected one rebuild span")
	}
}

// TestSpanTracer checks the telemetry.Tracer adapter batches query traces
// into query spans.
func TestSpanTracer(t *testing.T) {
	c := newCollector()
	defer c.srv.Close()
	exp, err := New(Config{Endpoint: c.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	tr := exp.NewSpanTracer(4)
	var _ telemetry.Tracer = tr
	for i := 0; i < 10; i++ {
		tr.Trace(telemetry.QueryTrace{KeyHash: uint64(i), Steps: 3, Found: true,
			LatencyNs: 50, UnixNano: int64(1000 + i)})
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, body := range c.bodies["/v1/traces"] {
		var req tracesRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("invalid OTLP JSON: %v", err)
		}
		for _, sp := range req.ResourceSpans[0].ScopeSpans[0].Spans {
			if sp.Name != "query" {
				t.Fatalf("unexpected span %q", sp.Name)
			}
			if !strings.HasPrefix(sp.EndTimeUnixNano, "10") {
				t.Fatalf("bad end time %s", sp.EndTimeUnixNano)
			}
			total++
		}
	}
	if total != 10 {
		t.Fatalf("exported %d query spans, want 10", total)
	}
}
