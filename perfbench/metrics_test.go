package main

import (
	"os"
	"strings"
	"testing"
)

// testdata/metrics.prom is a /metrics exposition captured from lcds-server
// (-n 32768) after a short run of single-key deletes, inserts and reads.
func loadExposition(t *testing.T) exposition {
	t.Helper()
	f, err := os.Open("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := parseExposition(f)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseCapturedExposition(t *testing.T) {
	e := loadExposition(t)
	for _, name := range []string{
		"lcds_queries_total", "lcds_probes_total",
		"lcds_claim_probes_total", "lcds_cas_retries_total",
		"lcds_rebuilds_total", "lcds_rebuild_ns_sum", "lcds_rebuild_ns_count",
		"lcds_writer_pause_ns_sum", "lcds_writer_pause_ns_count",
	} {
		found := false
		for series := range e {
			if series == name || strings.HasPrefix(series, name+"{") {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s series in the capture", name)
		}
	}
	for _, h := range handlers {
		for _, name := range []string{"lcds_http_requests_total", "lcds_http_errors_total", "lcds_http_request_ns_sum", "lcds_http_request_ns_count"} {
			series := name + `{handler="` + h + `"}`
			if _, ok := e[series]; !ok {
				t.Errorf("no %s in the capture", series)
			}
		}
	}
	// The capture holds writes: claim probes are counted per shard and the
	// per-handler ledger agrees with itself.
	if e.sum("lcds_claim_probes_total") <= 0 {
		t.Error("claim probes not parsed")
	}
	ins := e.handler("lcds_http_request_ns_count", "insert")
	if ins <= 0 || ins != e.handler("lcds_http_requests_total", "insert") {
		t.Errorf("insert count %g, requests %g", ins, e.handler("lcds_http_requests_total", "insert"))
	}
	// sum must not mistake lcds_rebuild_ns_sum for a series of lcds_rebuild_ns.
	if e.sum("lcds_rebuild_ns") == e.sum("lcds_rebuild_ns_sum") && e.sum("lcds_rebuild_ns_sum") != 0 {
		t.Error("sum(lcds_rebuild_ns) folded in the _sum series")
	}
}

func TestDeltaOfScrapes(t *testing.T) {
	after := loadExposition(t)
	before := exposition{}
	for k, v := range after {
		before[k] = v / 2
	}
	d := deltaOf(before, after)
	if want := after.sum("lcds_claim_probes_total") / 2; d.ClaimProbes != want {
		t.Errorf("claim probes delta %g, want %g", d.ClaimProbes, want)
	}
	h := d.Handlers["insert"]
	if h.NsCount != after.handler("lcds_http_request_ns_count", "insert")/2 {
		t.Errorf("insert delta %+v", h)
	}
	var total float64
	for _, hd := range d.Handlers {
		total += hd.NsCount
	}
	if d.HandlerRequests != total {
		t.Errorf("handler total %g, want %g", d.HandlerRequests, total)
	}
	two := d.plus(d)
	if two.ClaimProbes != 2*d.ClaimProbes || two.Handlers["insert"].NsSum != 2*h.NsSum {
		t.Error("plus does not add")
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"lcds_x\n", "lcds_x one\n"} {
		if _, err := parseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	e, err := parseExposition(strings.NewReader("# HELP x y\n\nlcds_x{a=\"b c\"} 2.5\n"))
	if err != nil || e[`lcds_x{a="b c"}`] != 2.5 {
		t.Errorf("labelled sample with a space: %v %v", e, err)
	}
}
