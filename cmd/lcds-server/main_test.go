package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	lcds "repro"

	"repro/internal/workload"
)

// defaultTelemetry is the telemetry configuration main builds without -otlp.
var defaultTelemetry = lcds.TelemetryConfig{TopK: 10}

func newTestMux(t *testing.T, n int, seed uint64) (*server, *http.ServeMux) {
	t.Helper()
	s, mux, err := newServer(n, seed, 1, 0.1, defaultTelemetry)
	if err != nil {
		t.Fatal(err)
	}
	return s, mux
}

func get(mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func post(mux *http.ServeMux, path string, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	mux.ServeHTTP(rec, httptest.NewRequest("POST", path, rd))
	return rec
}

// TestContainsEndpoint: every member key answers {"member":true} and a
// derived non-member answers false — the server's key set is exactly
// workload.MemberKeys(n, seed), so clients can re-derive it.
func TestContainsEndpoint(t *testing.T) {
	const n, seed = 256, 7
	_, mux := newTestMux(t, n, seed)
	keys := workload.MemberKeys(n, seed)
	for _, k := range keys[:32] {
		rec := get(mux, fmt.Sprintf("/contains?key=%d", k))
		if rec.Code != 200 {
			t.Fatalf("key %d: status %d: %s", k, rec.Code, rec.Body)
		}
		var resp struct {
			Key    uint64 `json:"key"`
			Member bool   `json:"member"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		if !resp.Member || resp.Key != k {
			t.Fatalf("member key %d answered %+v", k, resp)
		}
	}
	// MemberKeys is prefix-stable, so key n of the (n+1)-sized derivation is
	// a fresh non-member of the n-sized set.
	outsider := workload.MemberKeys(n+1, seed)[n]
	var resp struct {
		Member bool `json:"member"`
	}
	if err := json.Unmarshal(get(mux, fmt.Sprintf("/contains?key=%d", outsider)).Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Member {
		t.Fatalf("non-member %d answered true", outsider)
	}
}

// TestBatchMatchesSingles: a /batch answer must agree entry-wise with the
// single-key endpoint over a mixed member/non-member batch.
func TestBatchMatchesSingles(t *testing.T) {
	const n, seed = 256, 11
	_, mux := newTestMux(t, n, seed)
	probe := workload.MemberKeys(2*n, seed) // first n are members, rest mostly not
	body, _ := json.Marshal(batchRequest{Keys: probe})
	rec := post(mux, "/batch", string(body))
	if rec.Code != 200 {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	var resp membersAnswer
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Members) != len(probe) {
		t.Fatalf("batch answered %d entries for %d keys", len(resp.Members), len(probe))
	}
	for i, k := range probe {
		var single struct {
			Member bool `json:"member"`
		}
		if err := json.Unmarshal(get(mux, fmt.Sprintf("/contains?key=%d", k)).Body.Bytes(), &single); err != nil {
			t.Fatal(err)
		}
		if single.Member != resp.Members[i] {
			t.Fatalf("key %d: batch=%v single=%v", k, resp.Members[i], single.Member)
		}
	}
}

// TestInsertDelete: inserting a fresh key flips membership on, deleting
// flips it off, and the changed-bit reports idempotence.
func TestInsertDelete(t *testing.T) {
	const n, seed = 128, 13
	_, mux := newTestMux(t, n, seed)
	fresh := workload.MemberKeys(n+1, seed)[n]

	member := func() bool {
		var resp struct {
			Member bool `json:"member"`
		}
		if err := json.Unmarshal(get(mux, fmt.Sprintf("/contains?key=%d", fresh)).Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Member
	}
	if member() {
		t.Fatalf("fresh key %d already a member", fresh)
	}
	var ins struct {
		Inserted bool `json:"inserted"`
	}
	if err := json.Unmarshal(post(mux, fmt.Sprintf("/insert?key=%d", fresh), "").Body.Bytes(), &ins); err != nil {
		t.Fatal(err)
	}
	if !ins.Inserted || !member() {
		t.Fatalf("insert did not take: changed=%v member=%v", ins.Inserted, member())
	}
	if err := json.Unmarshal(post(mux, fmt.Sprintf("/insert?key=%d", fresh), "").Body.Bytes(), &ins); err != nil {
		t.Fatal(err)
	}
	if ins.Inserted {
		t.Fatal("second insert of the same key reported a change")
	}
	var del struct {
		Deleted bool `json:"deleted"`
	}
	if err := json.Unmarshal(post(mux, fmt.Sprintf("/delete?key=%d", fresh), "").Body.Bytes(), &del); err != nil {
		t.Fatal(err)
	}
	if !del.Deleted || member() {
		t.Fatalf("delete did not take: changed=%v member=%v", del.Deleted, member())
	}
}

// TestBadRequests pins the 400/405 surface: malformed keys, out-of-universe
// keys, malformed batch bodies, oversized batches, wrong methods.
func TestBadRequests(t *testing.T) {
	_, mux := newTestMux(t, 64, 17)
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/contains", "", 400},
		{"GET", "/contains?key=x", "", 400},
		{"GET", "/contains?key=-1", "", 400},
		{"GET", "/contains?key=2305843009213693951", "", 400}, // == MaxKey
		{"POST", "/contains?key=1", "", 405},
		{"POST", "/batch", "", 400},
		{"POST", "/batch", "{", 400},
		{"POST", "/batch", `{"keys":[]}`, 400},
		{"POST", "/batch", `{"keys":[1], "extra":true}`, 400},
		{"POST", "/batch", `{"keys":[2305843009213693951]}`, 400},
		{"GET", "/batch", "", 405},
		{"POST", "/insert", "", 400},
		{"POST", "/insert?key=x", "", 400},
		{"GET", "/insert?key=1", "", 405},
		{"POST", "/delete?key=y", "", 400},
		{"GET", "/delete?key=1", "", 405},
		{"GET", "/debug/timeline?since=x", "", 400},
	} {
		var rec *httptest.ResponseRecorder
		if tc.method == "GET" {
			rec = get(mux, tc.path)
		} else {
			rec = post(mux, tc.path, tc.body)
		}
		if rec.Code != tc.want {
			t.Errorf("%s %s (body %q): status %d, want %d", tc.method, tc.path, tc.body, rec.Code, tc.want)
		}
	}
	// The oversized batch: one over the limit.
	keys := make([]uint64, batchLimit+1)
	body, _ := json.Marshal(batchRequest{Keys: keys})
	if rec := post(mux, "/batch", string(body)); rec.Code != 400 {
		t.Errorf("oversized batch: status %d, want 400", rec.Code)
	}
}

// scrape fetches /metrics, checks that every requiredMetrics name appears
// and that every sample line parses as `name[{labels}] value` with a
// numeric value, and returns the values by series.
func scrape(t *testing.T, mux *http.ServeMux) map[string]float64 {
	t.Helper()
	body := get(mux, "/metrics").Body.String()
	for _, name := range requiredMetrics {
		if !strings.Contains(body, name) {
			t.Errorf("missing metric %s", name)
		}
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		samples[fields[0]] = v
	}
	return samples
}

// TestMetricsContract: the server's own HTTP series appear and the
// request/error ledgers reflect the traffic this test drove.
func TestMetricsContract(t *testing.T) {
	_, mux := newTestMux(t, 128, 19)
	keys := workload.MemberKeys(128, 19)
	for _, k := range keys[:16] {
		get(mux, fmt.Sprintf("/contains?key=%d", k))
	}
	get(mux, "/contains?key=x") // one contains error
	m := scrape(t, mux)
	for series, want := range map[string]float64{
		`lcds_http_requests_total{handler="contains"}`: 17,
		`lcds_http_errors_total{handler="contains"}`:   1,
		`lcds_http_requests_total{handler="batch"}`:    0,
		`lcds_http_request_ns_count{handler="all"}`:    17,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	requireSeries(t, m,
		`lcds_http_request_ns{handler="contains",quantile="0.99"}`,
		`lcds_http_request_ns{handler="all",quantile="0.999"}`)
}

// TestMetricsExposition: a server that has served nothing already exposes
// the whole contract — every requiredMetrics name, every handler's ledger
// at zero and the per-shard dynamic series — and every line parses.
func TestMetricsExposition(t *testing.T) {
	_, mux := newTestMux(t, 64, 29)
	m := scrape(t, mux)
	for _, h := range []string{"contains", "batch", "insert", "delete"} {
		for _, series := range []string{
			fmt.Sprintf("lcds_http_requests_total{handler=%q}", h),
			fmt.Sprintf("lcds_http_errors_total{handler=%q}", h),
		} {
			if got, ok := m[series]; !ok || got != 0 {
				t.Errorf("%s = %v (present %v), want 0", series, got, ok)
			}
		}
	}
	requireSeries(t, m,
		`lcds_rebuilds_total{shard="0"}`,
		`lcds_http_request_ns_count{handler="all"}`)
}

// TestTelemetryEndpoint: /debug/telemetry serves the dictionary's snapshot
// as JSON, and the snapshot counts the queries this test drove.
func TestTelemetryEndpoint(t *testing.T) {
	_, mux := newTestMux(t, 128, 19)
	for _, k := range workload.MemberKeys(128, 19)[:16] {
		get(mux, fmt.Sprintf("/contains?key=%d", k))
	}
	rec := get(mux, "/debug/telemetry")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/telemetry Content-Type %q", ct)
	}
	var snap lcds.TelemetrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/telemetry: invalid JSON: %v", err)
	}
	if snap.Queries != 16 || snap.Probes == 0 || snap.Latency.Count != 16 {
		t.Fatalf("/debug/telemetry after 16 queries: %+v", snap)
	}
}

// insertFresh POSTs /insert for the count keys that follow the server's
// n members in the workload.MemberKeys sequence, so each one is new, then
// waits for the rebuilds they trigger.
func insertFresh(t *testing.T, s *server, mux *http.ServeMux, n int, seed uint64, count int) {
	t.Helper()
	for _, k := range workload.MemberKeys(n+count, seed)[n:] {
		if rec := post(mux, fmt.Sprintf("/insert?key=%d", k), ""); rec.Code != 200 {
			t.Fatalf("insert: status %d: %s", rec.Code, rec.Body)
		}
	}
	s.dd.Quiesce()
}

// TestDynamicExposition: inserts through /insert that overflow the update
// buffer move the per-shard rebuild series, and lcds_keys and
// /debug/telemetry's n report the live key count, not the construction n.
func TestDynamicExposition(t *testing.T) {
	s, mux, err := newServer(1000, 9, 1, 0.05, defaultTelemetry)
	if err != nil {
		t.Fatal(err)
	}
	insertFresh(t, s, mux, 1000, 9, 200)
	m := scrape(t, mux)
	if got := m[`lcds_http_requests_total{handler="insert"}`]; got != 200 {
		t.Errorf("insert requests = %v, want 200", got)
	}
	if got := m["lcds_keys"]; got != 1200 {
		t.Errorf("lcds_keys = %v after 200 fresh inserts, want 1200", got)
	}
	var snap lcds.TelemetrySnapshot
	if err := json.Unmarshal(get(mux, "/debug/telemetry").Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/telemetry: invalid JSON: %v", err)
	}
	if snap.N != 1200 {
		t.Errorf("/debug/telemetry n = %d, want 1200", snap.N)
	}
	for _, series := range []string{
		`lcds_rebuilds_total{shard="0"}`,
		`lcds_rebuild_ns{shard="0",quantile="0.5"}`,
		`lcds_delta_high_water{shard="0"}`,
	} {
		if m[series] == 0 {
			t.Errorf("%s is zero or missing after forced rebuilds", series)
		}
	}
}

// TestTimelineEndpoint: after inserts that force rebuilds, the server's
// /debug/timeline pages through the flight recorder by cursor, rejects bad
// queries with 400, and /metrics counts the recorded events exactly.
func TestTimelineEndpoint(t *testing.T) {
	s, mux, err := newServer(1000, 17, 1, 0.05, defaultTelemetry)
	if err != nil {
		t.Fatal(err)
	}
	insertFresh(t, s, mux, 1000, 17, 300)

	var page1, page2 timelineReport
	if err := json.Unmarshal(get(mux, "/debug/timeline?max=4").Body.Bytes(), &page1); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(page1.Events) != 4 {
		t.Fatalf("page 1 has %d events, want 4", len(page1.Events))
	}
	rec := get(mux, "/debug/timeline?since="+strconv.FormatUint(page1.NextCursor, 10))
	if err := json.Unmarshal(rec.Body.Bytes(), &page2); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(page2.Events) == 0 {
		t.Fatal("page 2 empty: cursor did not advance through the timeline")
	}
	if first := page2.Events[0].Seq; first != page1.NextCursor+1 {
		t.Fatalf("page 2 starts at seq %d, want %d", first, page1.NextCursor+1)
	}
	for _, bad := range []string{"?since=x", "?max=0", "?max=x"} {
		if rec := get(mux, "/debug/timeline"+bad); rec.Code != 400 {
			t.Errorf("query %q got status %d, want 400", bad, rec.Code)
		}
	}

	m := scrape(t, mux)
	if m[`lcds_events_total{type="rebuild_end"}`] == 0 {
		t.Error("rebuild_end counter zero or missing after forced rebuilds")
	}
	requireSeries(t, m,
		`lcds_latency_ns{quantile="0.999"}`,
		`lcds_rebuild_ns{shard="0",quantile="0.999"}`,
		`lcds_writer_pause_ns{shard="0",quantile="0.5"}`)
}

func requireSeries(t *testing.T, m map[string]float64, series ...string) {
	t.Helper()
	for _, s := range series {
		if _, ok := m[s]; !ok {
			t.Errorf("missing series %s", s)
		}
	}
}

// TestRunGracefulShutdown: cancelling run's context stops new connections
// at once, still answers a request already in flight with its 200, and
// returns nil within shutdownGrace.
func TestRunGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	started, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		fmt.Fprintln(w, "ok")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, ln, h) }()
	status := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			status <- err.Error()
			return
		}
		resp.Body.Close()
		status <- resp.Status
	}()

	<-started
	cancel()
	// Shutdown closes the listener first; wait for that before letting the
	// in-flight handler finish.
	deadline := time.Now().Add(shutdownGrace)
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after cancel")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("run returned %v with a request in flight", err)
	default:
	}
	close(release)
	if got := <-status; got != "200 OK" {
		t.Fatalf("in-flight request got %q, want 200 OK", got)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(shutdownGrace):
		t.Fatal("run did not return within shutdownGrace")
	}
}

// TestRunReadHeaderTimeout holds run's defence against a stalled client: a
// connection that sends half a request line and stops is closed once
// readHeaderTimeout has passed, while other clients are served meanwhile.
func TestRunReadHeaderTimeout(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_, mux := newTestMux(t, 64, 29)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, ln, mux) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()

	start := time.Now()
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET /heal"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("/healthz while a client stalls: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz while a client stalls: %d %q", resp.StatusCode, body)
	}

	const slack = 2 * time.Second
	slow.SetReadDeadline(start.Add(readHeaderTimeout + slack))
	if _, err := io.Copy(io.Discard, slow); err != nil {
		t.Fatalf("stalled connection still open %v after it connected: %v", time.Since(start), err)
	}
	if took := time.Since(start); took < readHeaderTimeout-100*time.Millisecond {
		t.Fatalf("stalled connection closed after %v, before readHeaderTimeout (%v)", took, readHeaderTimeout)
	}
}

// TestInfoAndHealth pins the operational endpoints.
func TestInfoAndHealth(t *testing.T) {
	_, mux := newTestMux(t, 64, 23)
	if rec := get(mux, "/healthz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz: %d %q", rec.Code, rec.Body)
	}
	var info struct {
		N       int     `json:"n"`
		Seed    uint64  `json:"seed"`
		Shards  int     `json:"shards"`
		Epsilon float64 `json:"epsilon"`
	}
	rec := get(mux, "/info")
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.N != 64 || info.Seed != 23 || info.Shards != 1 || info.Epsilon != 0.1 {
		t.Fatalf("/info answered %+v", info)
	}
}

// TestNewServerRefusesWhatItWouldMisreport: a shard count below 1 or an
// epsilon outside (0, 1] fails at startup, rather than serving some other
// configuration than the one /info reports; /info reports the shards
// actually served.
func TestNewServerRefusesWhatItWouldMisreport(t *testing.T) {
	for _, tc := range []struct {
		shards  int
		epsilon float64
	}{
		{0, 0.1}, {-1, 0.1}, {1, 0}, {1, -0.5}, {1, 1.5}, {1, math.NaN()},
	} {
		if _, _, err := newServer(64, 23, tc.shards, tc.epsilon, defaultTelemetry); err == nil {
			t.Errorf("newServer accepted shards %d, epsilon %v", tc.shards, tc.epsilon)
		}
	}
	_, mux, err := newServer(64, 23, 4, 1, defaultTelemetry)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Shards  int     `json:"shards"`
		Epsilon float64 `json:"epsilon"`
	}
	if err := json.Unmarshal(get(mux, "/info").Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Shards != 4 || info.Epsilon != 1 {
		t.Fatalf("/info answered %+v, want 4 shards at epsilon 1", info)
	}
}
