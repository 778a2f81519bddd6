package main

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	lcds "repro"

	"repro/internal/workload"
)

// TestWriteMetricsContract: writeMetrics renders every requiredMetrics name
// for a plain static dictionary's telemetry, not only the server's dynamic
// one, and every sample line parses as `name[{labels}] value`.
func TestWriteMetricsContract(t *testing.T) {
	keys := workload.MemberKeys(512, 7)
	d, err := lcds.New(keys, lcds.WithSeed(7), lcds.WithTelemetry(lcds.TelemetryConfig{TopK: 4}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !d.Contains(k) {
			t.Fatalf("lost key %d", k)
		}
	}
	var sb strings.Builder
	writeMetrics(&sb, d.Telemetry().Snapshot())
	body := sb.String()
	for _, name := range requiredMetrics {
		if !strings.Contains(body, name) {
			t.Errorf("missing metric %s", name)
		}
	}
	if !strings.Contains(body, "lcds_queries_total 512\n") {
		t.Error("lcds_queries_total does not count the 512 queries")
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
	}
}

// TestParseTimelineParams pins the cursor grammar and the page-size cap.
func TestParseTimelineParams(t *testing.T) {
	since, max, err := parseTimelineParams("", "")
	if err != nil || since != 0 || max != defaultTimelineMax {
		t.Fatalf("defaults: since=%d max=%d err=%v", since, max, err)
	}
	since, max, err = parseTimelineParams("17", "3")
	if err != nil || since != 17 || max != 3 {
		t.Fatalf("explicit: since=%d max=%d err=%v", since, max, err)
	}
	if _, max, err := parseTimelineParams("", "99999999"); err != nil || max != maxTimelineMax {
		t.Fatalf("cap: max=%d err=%v", max, err)
	}
	for _, bad := range [][2]string{
		{"x", ""}, {"-1", ""}, {"", "0"}, {"", "-3"}, {"", "x"}, {"1e3", ""}, {"", "2.5"},
	} {
		if _, _, err := parseTimelineParams(bad[0], bad[1]); err == nil {
			t.Errorf("since=%q max=%q accepted", bad[0], bad[1])
		}
	}
}

// TestTimelineHandler serves a real dynamic dictionary's recorder through
// the handler and checks pagination plus the 400 paths.
func TestTimelineHandler(t *testing.T) {
	keys := workload.MemberKeys(1500, 17)
	dd, err := lcds.NewDynamic(keys[:1000], 0.05, lcds.WithSeed(17),
		lcds.WithTelemetry(lcds.TelemetryConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[1000:1300] {
		if _, err := dd.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	dd.Quiesce()
	h := timelineHandler(dd)

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/timeline?max=4", nil))
	var page1 timelineReport
	if err := json.Unmarshal(rec.Body.Bytes(), &page1); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(page1.Events) != 4 {
		t.Fatalf("page 1 has %d events, want 4", len(page1.Events))
	}
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET",
		"/debug/timeline?since="+strconv.FormatUint(page1.NextCursor, 10), nil))
	var page2 timelineReport
	if err := json.Unmarshal(rec.Body.Bytes(), &page2); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(page2.Events) == 0 {
		t.Fatal("page 2 empty: cursor did not advance")
	}
	if first := page2.Events[0].Seq; first != page1.NextCursor+1 {
		t.Fatalf("page 2 starts at seq %d, want %d", first, page1.NextCursor+1)
	}
	for _, bad := range []string{"?since=x", "?max=0", "?max=x", "?since=-2", "?max=1.5"} {
		rec = httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/debug/timeline"+bad, nil))
		if rec.Code != 400 {
			t.Errorf("query %q got status %d, want 400", bad, rec.Code)
		}
	}
}
