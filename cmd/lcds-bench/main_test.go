package main

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,3")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("bad list accepted")
	}
	if _, err := parseInts(""); err == nil {
		t.Error("empty list accepted")
	}
}

// TestPerfReportSchema is the golden-schema test for the BENCH JSON the
// -json mode writes: exactly these fields, in this set, including the
// telemetry block (omitempty — asserted by marshalling a fully populated
// record). CI's bench-smoke gates read these fields by name, so renaming or
// dropping one must update this list deliberately.
func TestPerfReportSchema(t *testing.T) {
	rep := perfReport{TelemetrySample: 1, ContainsTelemetryNsPerOp: 1,
		ContainsTelemetryAllocs: 1, TelemetryOverheadRatio: 1,
		TelemetryMaxPhiN: 1, TelemetryProbesPerQuery: 1}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"batch_contains_mlp_ns_per_op", "batch_contains_ns_per_op",
		"batch_group", "batch_speedup_vs_scalar",
		"build_ms",
		"contains_allocs_per_op", "contains_eventlog_allocs_per_op",
		"contains_eventlog_ns_per_op", "contains_ns_per_op",
		"contains_telemetry_allocs_per_op", "contains_telemetry_ns_per_op",
		"date", "dynamic_batch_ns_per_key",
		"dynamic_batch_telemetry_ns_per_key", "dynamic_batch_telemetry_ratio",
		"eventlog_overhead_ratio",
		"exact_contention_parallel_ms", "exact_contention_serial_ms",
		"exact_contention_speedup", "exact_contention_workers",
		"go_version", "gomaxprocs", "insert_ns_per_op",
		"max_phi_times_s",
		"mixed_hot_cas_retries",
		"mixed_hot_w1_ops_per_sec", "mixed_hot_w4_ops_per_sec",
		"mixed_hot_wmax_ops_per_sec",
		"mixed_w1_ops_per_sec", "mixed_w4_ops_per_sec",
		"mixed_wmax_ops_per_sec", "mixed_wmax_writers",
		"n", "query_n", "seed",
		"telemetry_max_phi_n", "telemetry_overhead_ratio",
		"telemetry_probes_per_query", "telemetry_sample",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("perfReport fields changed:\n got %v\nwant %v", got, want)
	}
}
