//go:build otlp

package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	lcds "repro"

	"repro/internal/telemetry/otlp"
)

// otlpTraceEvery samples 1 in this many queries as OTLP query spans while
// -otlp is set.
const otlpTraceEvery = 1024

// otlpExport pushes the server's telemetry to an OTLP/HTTP collector.
type otlpExport struct {
	exp    *otlp.Exporter
	tracer *otlp.SpanTracer
}

// newOTLPExport builds the exporter for endpoint and routes sampled query
// traces to it as spans in place of the internal trace ring. An empty
// endpoint leaves tel untouched and returns nil.
func newOTLPExport(endpoint string, tel *lcds.TelemetryConfig) (*otlpExport, error) {
	if endpoint == "" {
		return nil, nil
	}
	exp, err := otlp.New(otlp.Config{Endpoint: endpoint, Service: "lcds-server"})
	if err != nil {
		return nil, err
	}
	o := &otlpExport{exp: exp, tracer: exp.NewSpanTracer(64)}
	tel.TraceEvery, tel.Tracer = otlpTraceEvery, o.tracer
	return o, nil
}

// run exports once per interval until ctx is cancelled: the telemetry
// snapshot as OTLP metrics, the flight recorder's fresh window as spans
// (rebuilds, behind a since-cursor so each event exports
// once), and the buffered query spans. Export errors go to stderr and the
// loop keeps going.
func (o *otlpExport) run(ctx context.Context, dd *lcds.DynamicDict, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	var cursor uint64
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		snapErr := o.exp.ExportSnapshot(dd.Telemetry().Snapshot())
		var evs []lcds.Event
		evs, cursor = dd.Timeline(cursor, maxTimelineMax)
		err := errors.Join(snapErr, o.exp.ExportEvents(evs), o.tracer.Flush())
		if err != nil {
			fmt.Fprintln(os.Stderr, "lcds-server: otlp:", err)
		}
	}
}
