package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// exposition is one scrape of a Prometheus text exposition: every sample
// line keyed by its full series name, labels included exactly as written
// (`lcds_http_request_ns_sum{handler="batch"}`).
type exposition map[string]float64

// parseExposition reads the Prometheus text format (version 0.0.4): comment
// and blank lines are skipped, every other line is `<series> <value>`.
func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		// Label values may hold spaces, so split at the last space.
		i := strings.LastIndexByte(text, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
		}
		v, err := strconv.ParseFloat(text[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[strings.TrimSpace(text[:i])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

// sum adds every series of the metric called name, whatever its labels
// (per-shard series fold into one figure).
func (e exposition) sum(name string) float64 {
	var total float64
	for series, v := range e {
		if series == name || (strings.HasPrefix(series, name) && series[len(name)] == '{') {
			total += v
		}
	}
	return total
}

// handler returns the series of name labelled with handler h.
func (e exposition) handler(name, h string) float64 {
	return e[fmt.Sprintf("%s{handler=%q}", name, h)]
}

// minus returns e − before, series by series (counters become deltas).
func (e exposition) minus(before exposition) exposition {
	out := make(exposition, len(e))
	for k, v := range e {
		out[k] = v - before[k]
	}
	return out
}

// scrapeMetrics fetches and parses the server's /metrics.
func scrapeMetrics(addr string) (exposition, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// handlers are the server's instrumented endpoints, as labelled on /metrics.
var handlers = []string{"contains", "batch", "insert", "delete"}

// handlerDelta is one endpoint's traffic over a phase, read off the server's
// own ledger.
type handlerDelta struct {
	Requests float64 `json:"requests"`
	Errors   float64 `json:"errors"`
	NsSum    float64 `json:"ns_sum"`
	NsCount  float64 `json:"ns_count"`
}

// meanUs is the handler's mean in-server time per request.
func (h handlerDelta) meanUs() float64 {
	if h.NsCount == 0 {
		return 0
	}
	return h.NsSum / h.NsCount / 1e3
}

// serverDelta is the layer-counter view of one phase: every /metrics figure
// the benchmark attributes, as a difference between two scrapes.
type serverDelta struct {
	Handlers        map[string]handlerDelta `json:"handlers"`
	Queries         float64                 `json:"queries"`
	Probes          float64                 `json:"probes"`
	ClaimProbes     float64                 `json:"claim_probes"`
	CASRetries      float64                 `json:"cas_retries"`
	Rebuilds        float64                 `json:"rebuilds"`
	RebuildNsSum    float64                 `json:"rebuild_ns_sum"`
	RebuildNsCount  float64                 `json:"rebuild_ns_count"`
	WriterPauseNs   float64                 `json:"writer_pause_ns_sum"`
	WriterPauses    float64                 `json:"writer_pause_ns_count"`
	HandlerNsTotal  float64                 `json:"handler_ns_total"`
	HandlerRequests float64                 `json:"handler_requests"`
}

// deltaOf condenses after − before into the figures the report uses.
func deltaOf(before, after exposition) serverDelta {
	d := after.minus(before)
	out := serverDelta{
		Handlers:       map[string]handlerDelta{},
		Queries:        d.sum("lcds_queries_total"),
		Probes:         d.sum("lcds_probes_total"),
		ClaimProbes:    d.sum("lcds_claim_probes_total"),
		CASRetries:     d.sum("lcds_cas_retries_total"),
		Rebuilds:       d.sum("lcds_rebuilds_total"),
		RebuildNsSum:   d.sum("lcds_rebuild_ns_sum"),
		RebuildNsCount: d.sum("lcds_rebuild_ns_count"),
		WriterPauseNs:  d.sum("lcds_writer_pause_ns_sum"),
		WriterPauses:   d.sum("lcds_writer_pause_ns_count"),
	}
	for _, h := range handlers {
		hd := handlerDelta{
			Requests: d.handler("lcds_http_requests_total", h),
			Errors:   d.handler("lcds_http_errors_total", h),
			NsSum:    d.handler("lcds_http_request_ns_sum", h),
			NsCount:  d.handler("lcds_http_request_ns_count", h),
		}
		out.Handlers[h] = hd
		out.HandlerNsTotal += hd.NsSum
		out.HandlerRequests += hd.NsCount
	}
	return out
}

// plus adds two deltas of disjoint stretches.
func (s serverDelta) plus(o serverDelta) serverDelta {
	out := serverDelta{
		Handlers:        map[string]handlerDelta{},
		Queries:         s.Queries + o.Queries,
		Probes:          s.Probes + o.Probes,
		ClaimProbes:     s.ClaimProbes + o.ClaimProbes,
		CASRetries:      s.CASRetries + o.CASRetries,
		Rebuilds:        s.Rebuilds + o.Rebuilds,
		RebuildNsSum:    s.RebuildNsSum + o.RebuildNsSum,
		RebuildNsCount:  s.RebuildNsCount + o.RebuildNsCount,
		WriterPauseNs:   s.WriterPauseNs + o.WriterPauseNs,
		WriterPauses:    s.WriterPauses + o.WriterPauses,
		HandlerNsTotal:  s.HandlerNsTotal + o.HandlerNsTotal,
		HandlerRequests: s.HandlerRequests + o.HandlerRequests,
	}
	for _, h := range handlers {
		a, b := s.Handlers[h], o.Handlers[h]
		out.Handlers[h] = handlerDelta{
			Requests: a.Requests + b.Requests,
			Errors:   a.Errors + b.Errors,
			NsSum:    a.NsSum + b.NsSum,
			NsCount:  a.NsCount + b.NsCount,
		}
	}
	return out
}
