package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	lcds "repro"
)

// requiredMetrics is the stable exposition contract: every name must appear
// in /metrics output regardless of configuration. TestWriteMetricsContract
// asserts against this list.
var requiredMetrics = []string{
	"lcds_queries_total",
	"lcds_hits_total",
	"lcds_misses_total",
	"lcds_errors_total",
	"lcds_probes_total",
	"lcds_probes_per_query",
	"lcds_max_phi",
	"lcds_max_phi_n",
	"lcds_step_mass",
	"lcds_cells",
	"lcds_keys",
	"lcds_uptime_seconds",
	"lcds_latency_ns",
	"lcds_batch_latency_ns",
	"lcds_events_total",
}

// writeMetrics renders a telemetry snapshot in the Prometheus text
// exposition format (version 0.0.4), with no client library: the snapshot
// is already a consistent point-in-time read, so exposition is pure
// formatting. A dynamic dictionary keeps no per-cell counters, so
// the snapshot's TopCells and Ranges are always empty and not rendered.
func writeMetrics(w io.Writer, s lcds.TelemetrySnapshot) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("lcds_queries_total", "Queries observed by the telemetry layer.", s.Queries)
	counter("lcds_hits_total", "Queries answered true.", s.Hits)
	counter("lcds_misses_total", "Queries answered false.", s.Misses)
	counter("lcds_errors_total", "Queries that returned an error.", s.Errors)
	counter("lcds_probes_total", "Cell probes, every one counted.", s.Probes)
	gauge("lcds_probes_per_query", "Mean probes per query.", s.ProbesPerQuery)
	gauge("lcds_max_phi", "Empirical per-cell contention max_j phi(j) (Definition 1).", s.MaxPhi)
	gauge("lcds_max_phi_n", "max_j phi(j) * n, the paper's absolute contention headline.", s.MaxPhiN)
	gauge("lcds_max_phi_cell", "Flat index of the hottest cell.", float64(s.MaxPhiCell))
	gauge("lcds_cells", "Cell-probe table size s.", float64(s.Cells))
	gauge("lcds_keys", "Member key count n.", float64(s.N))
	gauge("lcds_uptime_seconds", "Seconds since telemetry was attached.", s.UptimeSeconds)

	fmt.Fprintf(w, "# HELP lcds_step_mass Probability a query executes probe step t.\n# TYPE lcds_step_mass gauge\n")
	for t, m := range s.StepMass {
		fmt.Fprintf(w, "lcds_step_mass{step=\"%d\"} %g\n", t, m)
	}

	summary(w, "lcds_latency_ns", "Contains latency in nanoseconds (log2 buckets; quantiles are bucket upper bounds).", s.Latency)
	summary(w, "lcds_batch_latency_ns", "ContainsBatch latency in nanoseconds per batch.", s.BatchLatency)

	// Flight-recorder series: one counter per event type (all types always
	// present, zero included, so dashboards never see a series appear late).
	fmt.Fprintf(w, "# HELP lcds_events_total Flight-recorder events recorded, by type.\n# TYPE lcds_events_total counter\n")
	for ty := lcds.EventEpochSealed; ty <= lcds.EventShardRebuild; ty++ {
		fmt.Fprintf(w, "lcds_events_total{type=%q} %d\n", ty.String(), s.Events.ByType[ty.String()])
	}

	for _, d := range s.Dynamic {
		label := fmt.Sprintf("shard=\"%d\"", d.Shard)
		sh := "{" + label + "}"
		fmt.Fprintf(w, "lcds_rebuilds_total%s %d\n", sh, d.Rebuilds)
		fmt.Fprintf(w, "lcds_rebuild_keys_total%s %d\n", sh, d.RebuildKeys)
		fmt.Fprintf(w, "lcds_rebuild_failures_total%s %d\n", sh, d.RebuildFails)
		fmt.Fprintf(w, "lcds_delta_depth%s %d\n", sh, d.DeltaDepth)
		fmt.Fprintf(w, "lcds_delta_high_water%s %d\n", sh, d.DeltaHighWater)
		fmt.Fprintf(w, "lcds_claim_probes_total%s %d\n", sh, d.ClaimProbes)
		fmt.Fprintf(w, "lcds_cas_retries_total%s %d\n", sh, d.CASRetries)
		summarySamples(w, "lcds_rebuild_ns", label, d.RebuildNs)
		summarySamples(w, "lcds_writer_pause_ns", label, d.WriterPauseNs)
	}
}

// summary renders a LogHistogram snapshot as a Prometheus summary. The
// quantiles are log2-bucket upper bounds, which is what a 65-bucket
// power-of-two histogram can honestly claim.
func summary(w io.Writer, name, help string, h lcds.TelemetryHistogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	summarySamples(w, name, "", h)
}

// summarySamples writes h's quantiles, sum and count as samples of the
// summary name; a non-empty label is a `key="value"` pair every sample
// carries.
func summarySamples(w io.Writer, name, label string, h lcds.TelemetryHistogram) {
	quantile, set := "{", ""
	if label != "" {
		quantile, set = "{"+label+",", "{"+label+"}"
	}
	fmt.Fprintf(w, "%s%squantile=\"0.5\"} %d\n", name, quantile, h.P50)
	fmt.Fprintf(w, "%s%squantile=\"0.99\"} %d\n", name, quantile, h.P99)
	fmt.Fprintf(w, "%s%squantile=\"0.999\"} %d\n", name, quantile, h.P999)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, set, h.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, h.Count)
}

// timelineReport is the /debug/timeline response body.
type timelineReport struct {
	Events []lcds.Event `json:"events"`
	// NextCursor is the value to pass as ?since= to read only newer events.
	NextCursor uint64 `json:"next_cursor"`
}

// Timeline page-size bounds: defaultTimelineMax when ?max= is absent,
// maxTimelineMax as the silent cap on explicit requests.
const (
	defaultTimelineMax = 256
	maxTimelineMax     = 4096
)

// parseTimelineParams validates the ?since= and ?max= cursor parameters.
// Empty strings select the defaults (since 0, max defaultTimelineMax);
// anything non-numeric, a negative or zero max, or a max overflow is an
// error — the handler turns any error into a 400, never a panic (fuzzed).
func parseTimelineParams(sinceStr, maxStr string) (since uint64, max int, err error) {
	if sinceStr != "" {
		since, err = strconv.ParseUint(sinceStr, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad since cursor")
		}
	}
	max = defaultTimelineMax
	if maxStr != "" {
		m, err := strconv.Atoi(maxStr)
		if err != nil || m <= 0 {
			return 0, 0, fmt.Errorf("bad max")
		}
		max = m
	}
	if max > maxTimelineMax {
		max = maxTimelineMax
	}
	return since, max, nil
}

// timelineHandler serves the flight recorder with since-cursor pagination:
// ?since=<cursor> returns only events newer than the cursor (0 = from the
// oldest retained), ?max=<n> caps the page size. Malformed parameters 400.
func timelineHandler(dd *lcds.DynamicDict) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		since, max, err := parseTimelineParams(q.Get("since"), q.Get("max"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		evs, next := dd.Timeline(since, max)
		if evs == nil {
			evs = []lcds.Event{}
		}
		rep := timelineReport{Events: evs, NextCursor: next}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	}
}
