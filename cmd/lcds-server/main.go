// Command lcds-server serves a dynamic low-contention dictionary over a
// small HTTP membership API: GET /contains, POST /batch, POST /insert,
// POST /delete. The data plane's JSON is hand-coded (wire.go): a canonical
// {"keys":[...]} body is parsed without encoding/json, any other body is
// still accepted exactly as encoding/json decodes it, and a /batch answer
// is sent with a Content-Length, not chunked. Its observability surface is
// /metrics (Prometheus text, with per-endpoint HTTP request counters and
// latency summaries, so a client's view of the traffic can be
// cross-checked against the server's), /debug/telemetry, /debug/timeline
// and /debug/pprof. The repo benchmark (perfbench/) drives this binary;
// TestServiceScenarios drives every registered workload scenario through
// its handlers and checks each answer. Built with -tags otlp, -otlp also
// pushes metrics and flight-recorder spans to an OTLP/HTTP collector.
// SIGINT or SIGTERM drains in-flight requests before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	lcds "repro"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

// batchLimit caps the number of keys a single POST /batch may carry; the
// request body size cap is derived from it (a uint64 key needs at most 20
// decimal digits plus JSON punctuation).
const (
	batchLimit     = 4096
	batchBodyLimit = 32 * batchLimit
)

// shutdownGrace bounds how long a shutdown waits for in-flight requests;
// otlpEvery is the OTLP export interval while -otlp is set.
// readHeaderTimeout bounds how long a connection may take to send a
// request's line and headers, so a client that stalls mid-request cannot
// hold a connection and its goroutine forever; a well-behaved client sends
// both in one segment. There is deliberately no idle timeout: keep-alive
// connections may sit idle between requests as long as they like (the
// header clock starts only once the next request's first bytes arrive).
const (
	shutdownGrace     = 2 * time.Second
	otlpEvery         = 10 * time.Second
	readHeaderTimeout = 2 * time.Second
)

// endpointStats is one handler's request ledger: total requests, requests
// answered with a 4xx/5xx, and a log₂ latency histogram. The histogram is
// the same striped structure the dictionary's telemetry uses, so scraping
// it costs the handlers nothing.
type endpointStats struct {
	name     string
	requests atomic.Uint64
	errors   atomic.Uint64
	lat      *telemetry.LogHistogram
}

type server struct {
	dd *lcds.DynamicDict

	n       int
	seed    uint64
	shards  int
	epsilon float64

	stats []*endpointStats
}

func newEndpointStats(name string) *endpointStats {
	return &endpointStats{name: name, lat: telemetry.NewLogHistogram()}
}

// instrument wraps a handler that returns its HTTP status. Every request is
// counted and timed; statuses ≥ 400 also count as errors.
func (s *server) instrument(st *endpointStats, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := h(w, r)
		st.lat.Observe(uint64(time.Since(start).Nanoseconds()))
		st.requests.Add(1)
		if code >= 400 {
			st.errors.Add(1)
		}
	}
}

// parseKey validates a ?key= parameter: a decimal uint64 strictly below
// lcds.MaxKey, the dictionary's key-universe bound.
func parseKey(raw string) (uint64, error) {
	k, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad key: want a decimal uint64")
	}
	if k >= lcds.MaxKey {
		return 0, fmt.Errorf("bad key: %d is outside the key universe [0, 2^61-1)", k)
	}
	return k, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *server) handleContains(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return http.StatusMethodNotAllowed
	}
	key, err := parseKey(r.URL.Query().Get("key"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return http.StatusBadRequest
	}
	member, err := s.dd.Contains(key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
	sc := getScratch()
	sc.resp = appendContains(sc.resp[:0], key, member)
	writeWire(w, sc.resp)
	putScratch(sc)
	return http.StatusOK
}

// handleBatch answers POST /batch. The whole body, up to batchBodyLimit
// bytes, is read before it is decoded, so a body longer than the limit is
// refused even when a complete object ends within it.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return http.StatusMethodNotAllowed
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, batchBodyLimit)); err != nil {
		http.Error(w, "bad batch body: "+err.Error(), http.StatusBadRequest)
		return http.StatusBadRequest
	}
	keys, err := decodeBatchKeys(sc.body.Bytes(), sc.keys)
	sc.keys = keys
	if err != nil {
		http.Error(w, "bad batch body: "+err.Error(), http.StatusBadRequest)
		return http.StatusBadRequest
	}
	if len(keys) == 0 {
		http.Error(w, "bad batch: empty keys", http.StatusBadRequest)
		return http.StatusBadRequest
	}
	if len(keys) > batchLimit {
		http.Error(w, fmt.Sprintf("bad batch: %d keys exceeds the %d-key limit", len(keys), batchLimit), http.StatusBadRequest)
		return http.StatusBadRequest
	}
	for _, k := range keys {
		if k >= lcds.MaxKey {
			http.Error(w, fmt.Sprintf("bad key: %d is outside the key universe [0, 2^61-1)", k), http.StatusBadRequest)
			return http.StatusBadRequest
		}
	}
	if cap(sc.out) < len(keys) {
		sc.out = make([]bool, len(keys))
	}
	out := sc.out[:len(keys)]
	if err := s.dd.ContainsBatch(keys, out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
	sc.resp = appendMembers(sc.resp[:0], out)
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.resp)))
	writeWire(w, sc.resp)
	return http.StatusOK
}

// handleWrite serves /insert and /delete, which differ only in the
// dictionary method and the response field name.
func (s *server) handleWrite(w http.ResponseWriter, r *http.Request, del bool) int {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return http.StatusMethodNotAllowed
	}
	key, err := parseKey(r.URL.Query().Get("key"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return http.StatusBadRequest
	}
	var changed bool
	if del {
		changed, err = s.dd.Delete(key)
	} else {
		changed, err = s.dd.Insert(key)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
	field := "inserted"
	if del {
		field = "deleted"
	}
	sc := getScratch()
	sc.resp = appendWrite(sc.resp[:0], field, key, changed)
	writeWire(w, sc.resp)
	putScratch(sc)
	return http.StatusOK
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeMetrics(w, s.dd.Telemetry())
	s.writeHTTPMetrics(w)
}

// writeHTTPMetrics renders the server-level request ledger: per-handler
// request and error counters plus a per-handler latency summary, with an
// "all" aggregate merged bucket-wise from the per-handler snapshots.
func (s *server) writeHTTPMetrics(w http.ResponseWriter) {
	fmt.Fprint(w, "# HELP lcds_http_requests_total HTTP requests served, by handler.\n# TYPE lcds_http_requests_total counter\n")
	for _, st := range s.stats {
		fmt.Fprintf(w, "lcds_http_requests_total{handler=%q} %d\n", st.name, st.requests.Load())
	}
	fmt.Fprint(w, "# HELP lcds_http_errors_total HTTP requests answered 4xx/5xx, by handler.\n# TYPE lcds_http_errors_total counter\n")
	for _, st := range s.stats {
		fmt.Fprintf(w, "lcds_http_errors_total{handler=%q} %d\n", st.name, st.errors.Load())
	}
	fmt.Fprint(w, "# HELP lcds_http_request_ns Request latency in nanoseconds, by handler (log2 buckets; quantiles are bucket upper bounds).\n# TYPE lcds_http_request_ns summary\n")
	snaps := make([]telemetry.HistogramSnapshot, 0, len(s.stats))
	for _, st := range s.stats {
		snap := st.lat.Snapshot()
		snaps = append(snaps, snap)
		summarySamples(w, "lcds_http_request_ns", fmt.Sprintf("handler=%q", st.name), snap)
	}
	summarySamples(w, "lcds_http_request_ns", `handler="all"`, telemetry.MergeHistogramSnapshots(snaps...))
}

func (s *server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.dd.Telemetry().Snapshot())
}

func (s *server) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"n":       s.n,
		"seed":    s.seed,
		"shards":  s.shards,
		"epsilon": s.epsilon,
	})
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "lcds-server\n\n"+
		"GET  /contains?key=<k>  membership query\n"+
		"POST /batch             {\"keys\":[...]} -> {\"members\":[...]} (<= 4096 keys)\n"+
		"POST /insert?key=<k>    insert\n"+
		"POST /delete?key=<k>    delete\n"+
		"GET  /info              construction parameters\n"+
		"GET  /healthz           liveness\n"+
		"/metrics                Prometheus text exposition (+ per-handler HTTP series)\n"+
		"/debug/telemetry        JSON telemetry snapshot\n"+
		"/debug/timeline         flight-recorder timeline (?since=<cursor>&max=<n>)\n"+
		"/debug/pprof/           runtime profiles\n")
}

// newServer builds the dictionary and the handler mux; split from main so
// tests and fuzz targets drive the exact production wiring.
func newServer(n int, seed uint64, shards int, epsilon float64, tel lcds.TelemetryConfig) (*server, *http.ServeMux, error) {
	keys := workload.MemberKeys(n, seed)
	opts := []lcds.Option{
		lcds.WithSeed(seed),
		lcds.WithTelemetry(tel),
	}
	if shards > 1 {
		opts = append(opts, lcds.WithShards(shards))
	}
	dd, err := lcds.NewDynamic(keys, epsilon, opts...)
	if err != nil {
		return nil, nil, err
	}
	s := &server{dd: dd, n: n, seed: seed, shards: shards, epsilon: epsilon}

	contains := newEndpointStats("contains")
	batch := newEndpointStats("batch")
	insert := newEndpointStats("insert")
	del := newEndpointStats("delete")
	s.stats = []*endpointStats{contains, batch, insert, del}

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/contains", s.instrument(contains, s.handleContains))
	mux.HandleFunc("/batch", s.instrument(batch, s.handleBatch))
	mux.HandleFunc("/insert", s.instrument(insert, func(w http.ResponseWriter, r *http.Request) int {
		return s.handleWrite(w, r, false)
	}))
	mux.HandleFunc("/delete", s.instrument(del, func(w http.ResponseWriter, r *http.Request) int {
		return s.handleWrite(w, r, true)
	}))
	mux.HandleFunc("/info", s.handleInfo)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/telemetry", s.handleTelemetry)
	mux.HandleFunc("/debug/timeline", timelineHandler(s.dd))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, mux, nil
}

// run serves h on ln until ctx is cancelled, then shuts down gracefully:
// the listener closes at once, and requests already in flight get up to
// shutdownGrace to finish. A connection that does not deliver a request's
// headers within readHeaderTimeout is closed.
func run(ctx context.Context, ln net.Listener, h http.Handler) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	shctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := hs.Shutdown(shctx)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	n := flag.Int("n", 8192, "initial member key count (keys derived deterministically from -seed)")
	seed := flag.Uint64("seed", 1, "construction and key-derivation seed")
	shards := flag.Int("shards", 1, "shard count (≥ 2 enables the sharded composite)")
	epsilon := flag.Float64("epsilon", 0.1, "dynamic buffer fraction")
	sample := flag.Int("sample", 1, "probe sampling rate: count 1 in k probes (rounded to a power of two)")
	otlpEndpoint := flag.String("otlp", "", "export metrics and flight-recorder spans to this OTLP/HTTP endpoint, e.g. http://localhost:4318 (needs a binary built with -tags otlp)")
	flag.Parse()

	tel := lcds.TelemetryConfig{Sample: *sample, TopK: 10}
	exp, err := newOTLPExport(*otlpEndpoint, &tel)
	if err != nil {
		fatal(err)
	}
	s, mux, err := newServer(*n, *seed, *shards, *epsilon, tel)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if exp != nil {
		go exp.run(ctx, s.dd, otlpEvery)
	}
	// The first stdout line is the listen banner: harnesses parse the
	// address out of it.
	fmt.Printf("lcds-server: n=%d seed=%d shards=%d, serving http://%s/\n",
		*n, *seed, *shards, ln.Addr())
	if err := run(ctx, ln, mux); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lcds-server:", err)
	os.Exit(1)
}
