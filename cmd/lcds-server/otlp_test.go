//go:build otlp

package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestOTLPExport wires -otlp into a real server, runs the export loop for
// one tick against a fake collector, and checks that exactly one metrics
// post and one events post arrive, both naming service lcds-server.
func TestOTLPExport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	bodies := map[string][]string{}
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies[r.URL.Path] = append(bodies[r.URL.Path], string(body))
		mu.Unlock()
		if r.URL.Path == "/v1/traces" {
			cancel() // the events post is the tick's last
		}
	}))
	defer collector.Close()

	tel := defaultTelemetry
	exp, err := newOTLPExport(collector.URL, &tel)
	if err != nil {
		t.Fatal(err)
	}
	if tel.TraceEvery != otlpTraceEvery || tel.Tracer == nil {
		t.Fatalf("-otlp left query tracing unset: TraceEvery=%d Tracer=%v", tel.TraceEvery, tel.Tracer)
	}
	s, mux, err := newServer(256, 31, 1, 0.1, tel)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh inserts past the buffer force a rebuild, so the tick has a
	// rebuild span to post.
	for _, k := range workload.MemberKeys(512, 31)[256:] {
		if rec := post(mux, fmt.Sprintf("/insert?key=%d", k), ""); rec.Code != 200 {
			t.Fatalf("insert: status %d", rec.Code)
		}
	}
	s.dd.Quiesce()

	done := make(chan struct{})
	go func() {
		exp.run(ctx, s.dd, 50*time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("export loop never finished a tick")
	}

	mu.Lock()
	defer mu.Unlock()
	// The exporter's hand-rolled encoder writes the resource attribute in
	// exactly this form.
	const service = `{"key":"service.name","value":{"stringValue":"lcds-server"}}`
	for _, path := range []string{"/v1/metrics", "/v1/traces"} {
		if len(bodies[path]) != 1 {
			t.Fatalf("%s got %d posts, want 1", path, len(bodies[path]))
		}
		if !strings.Contains(bodies[path][0], service) {
			t.Fatalf("%s post lacks service.name lcds-server: %.300s", path, bodies[path][0])
		}
	}
}
