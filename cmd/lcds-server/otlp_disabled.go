//go:build !otlp

package main

import (
	"context"
	"errors"
	"time"

	lcds "repro"
)

// otlpExport is the OTLP export loop; a build without the otlp tag has no
// exporter, so it is never constructed.
type otlpExport struct{}

// newOTLPExport refuses -otlp so the operator learns the binary lacks the
// exporter rather than silently exporting nothing.
func newOTLPExport(endpoint string, tel *lcds.TelemetryConfig) (*otlpExport, error) {
	if endpoint != "" {
		return nil, errors.New("-otlp requires a binary built with -tags otlp")
	}
	return nil, nil
}

func (*otlpExport) run(ctx context.Context, s *server, every time.Duration) {}
