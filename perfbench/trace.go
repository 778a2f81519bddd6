package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"time"
)

// Span layers. A client span covers one HTTP request as the benchmark saw
// it; a rung span covers one in-process call into a layer's public API.
// parentLayer gives the layer above each rung: a rung's self time is its
// mean minus the mean of the rung it wraps.
const (
	layerClientContains uint8 = iota
	layerClientBatch
	layerCoreContains
	layerCoreBatch
	layerDynamicContains
	layerDynamicBatch
	layerDynamicWrite
	layerFacadeContains // facade without telemetry
	layerFacadeBatch
	layerFacadeWrite
	layerServedContains // facade with the server's telemetry: the handlers' call
	layerServedBatch
	layerServedWrite
	numLayers
)

var layerNames = [numLayers]string{
	"client.contains", "client.batch",
	"core.contains", "core.batch",
	"dynamic.contains", "dynamic.batch", "dynamic.write",
	"facade.contains", "facade.batch", "facade.write",
	"served.contains", "served.batch", "served.write",
}

var parentLayer = [numLayers]string{
	"", "",
	"dynamic.contains", "dynamic.batch",
	"facade.contains", "facade.batch", "facade.write",
	"served.contains", "served.batch", "served.write",
	"client.contains", "client.batch", "",
}

// span is one timed call: the request index (client spans) or schedule
// position (rung spans) it served, and its interval in ns since the
// tracer's epoch.
type span struct {
	id         int64
	layer      uint8
	start, end int64
}

// tracer keeps spans in memory for the whole run; write dumps them once the
// measurement is over, so tracing costs a run no I/O while it measures.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s []span) {
	if t != nil {
		t.spans = append(t.spans, s...)
	}
}

func (t *tracer) stamp(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// clientSpan builds the span of request j sent at t0 and answered at t1.
func (t *tracer) clientSpan(j int, r *request, t0, t1 time.Time) span {
	layer := layerClientContains
	if r.keys != nil {
		layer = layerClientBatch
	}
	return span{id: int64(j), layer: layer, start: t.stamp(t0), end: t.stamp(t1)}
}

// write dumps every span as gzip-compressed CSV.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "layer,parent,id,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d\n", layerNames[s.layer], parentLayer[s.layer], s.id, s.start, s.end)
	}
	err = w.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}

// layerStats sums the spans of each layer: call count and busy time.
func (t *tracer) layerStats() (calls [numLayers]int, busyNs [numLayers]int64) {
	for _, s := range t.spans {
		calls[s.layer]++
		busyNs[s.layer] += s.end - s.start
	}
	return calls, busyNs
}
