//go:build !otlp

package main

import (
	"reflect"
	"testing"
)

// TestOTLPRefused: a build without the otlp tag refuses -otlp instead of
// silently exporting nothing.
func TestOTLPRefused(t *testing.T) {
	tel := defaultTelemetry
	if _, err := newOTLPExport("http://localhost:4318", &tel); err == nil {
		t.Fatal("-otlp accepted by a build without the exporter")
	}
	if exp, err := newOTLPExport("", &tel); exp != nil || err != nil || !reflect.DeepEqual(tel, defaultTelemetry) {
		t.Fatalf("no -otlp: exporter %v, err %v, telemetry %+v", exp, err, tel)
	}
}
