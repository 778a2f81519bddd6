// Package otlp maps the telemetry layer and the flight recorder onto the
// OpenTelemetry protocol: snapshot gauges, counters and log₂ latency
// histograms become OTLP metrics, and flight-recorder events become OTLP
// spans (a rebuild is a span from its RebuildStart to its RebuildEnd; a
// split phase is a span from PhaseSplit to PhaseJoined), posted over
// OTLP/HTTP in the JSON encoding. The encoding is hand-rolled against the
// stable OTLP 1.x JSON schema — no OpenTelemetry SDK — so the default build
// pulls in no dependencies.
//
// The implementation compiles only under the `otlp` build tag:
//
//	go build -tags otlp ./...
//	go run -tags otlp ./cmd/lcds-server -otlp http://localhost:4318
//
// Without the tag this package is an empty placeholder and lcds-server's
// -otlp flag refuses to start.
package otlp
