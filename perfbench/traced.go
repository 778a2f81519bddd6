package main

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// scraped runs a phase between two /metrics scrapes and returns the
// server's own view of it.
func (b *bench) scraped(run func() phase) (phase, serverDelta, error) {
	before, err := scrapeMetrics(b.srv.addr)
	if err != nil {
		return phase{}, serverDelta{}, err
	}
	p := run()
	after, err := scrapeMetrics(b.srv.addr)
	if err != nil {
		return phase{}, serverDelta{}, err
	}
	return p, deltaOf(before, after), nil
}

// traceSegments is how many closed-loop segments, together b.half() long,
// the traced run alternates between untraced and traced, so drift of the
// machine's speed spreads over both sides of the tracing-overhead
// comparison.
const traceSegments = 4

// traced is the per-layer run: closed-loop segments alternating untraced
// and traced, open loop traced under a CPU profile, the server probe, then
// the in-process ladder and its probe.
func (b *bench) traced() (result, *runRecord, error) {
	tr := newTracer()
	var plain, withSpans []phase
	var sd serverDelta
	var cpu time.Duration // server CPU time over the traced segments
	seg := b.half() / traceSegments
	for i := 0; i < traceSegments; i++ {
		if i%2 == 0 {
			plain = append(plain, closedLoop("closed", b.clients, &b.cur, seg, nil))
			continue
		}
		before, err := b.srv.cpuTime()
		if err != nil {
			return result{}, nil, err
		}
		p, d, err := b.scraped(func() phase { return closedLoop("closed-traced", b.clients, &b.cur, seg, tr) })
		if err != nil {
			return result{}, nil, err
		}
		after, err := b.srv.cpuTime()
		if err != nil {
			return result{}, nil, err
		}
		cpu += after - before
		withSpans = append(withSpans, p)
		sd = sd.plus(d)
	}
	untraced := b.measure(combine("closed", plain...))
	closed := b.measure(combine("closed-traced", withSpans...))
	b.rec.Server[closed.Name] = sd

	profile := filepath.Join(b.cfg.out, b.cfg.def.name+".cpu.pprof")
	profErr := make(chan error, 1)
	go func() { profErr <- b.srv.fetchProfile(profile, max(int(b.half().Seconds()), 1)) }()
	open, od, err := b.scraped(func() phase { return b.openLoop("open-traced", b.half(), tr) })
	if perr := <-profErr; err == nil {
		err = perr
	}
	if err != nil {
		return result{}, nil, err
	}
	b.measure(open)
	b.noteSendLag(open)
	b.rec.Server[open.Name] = od
	pd, err := b.probeServer(sd)
	if err != nil {
		return result{}, nil, err
	}
	b.rec.Server["probe"] = pd
	b.finish()
	b.srv.stop()
	b.srv = nil

	// The in-process ladder runs with the server gone, on the CPU and with
	// the GOMAXPROCS the server had.
	if err := pinSelf(serverCPU); err != nil {
		return result{}, nil, err
	}
	runtime.GOMAXPROCS(serverProcs)
	l, err := newLadder(b.s.keys, 3)
	if err != nil {
		return result{}, nil, err
	}
	reqs := b.s.def.ladderReqs
	t, err := l.replay(b.s, reqs, ladderRounds, tr)
	if err != nil {
		return result{}, nil, err
	}
	pt, err := l.probe(b.s.keys, tr)
	if err != nil {
		return result{}, nil, err
	}
	t.add(pt)
	if t.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: in-process replay: %d of %d answers wrong\n", t.failed, t.ops)
	}
	b.total.add(t)
	ppq, err := l.probesPerQuery(b.s, 4096)
	if err != nil {
		return result{}, nil, err
	}
	spans := filepath.Join(b.cfg.out, b.cfg.def.name+".spans.csv.gz")
	if err := tr.write(spans); err != nil {
		return result{}, nil, err
	}
	b.rec.Files = []string{profile, spans}

	return b.result(b.layerMetrics(tr, l, sd, pd, cpu, untraced, closed, open, ppq)), b.rec, nil
}

// Probes price the endpoints and rungs a workload never reaches, so that
// every per-layer figure is measured on every workload: probeReads member
// reads, probeBatches batches of probeBatchKeys members, and probeWrites
// alternating deletes and inserts of one member, which leave it a member.
// No workload writes, so the write path is priced on the probe alone.
// probeWrites crosses one rebuild threshold (ε·n buffer slots, claimed at
// about one slot per two writes), so the rebuild figures are measured too.
const (
	probeReads     = 2000
	probeBatches   = 100
	probeBatchKeys = 1024
	probeWrites    = 8000
)

// probeKey is the member the write probe churns.
func probeKey(keys []uint64) uint64 { return keys[1] }

// probeRead is the member the read probe's i-th read asks for.
func probeRead(keys []uint64, i int) uint64 { return keys[1+i%(len(keys)-1)] }

// probeBatch is the batch probe's i-th batch: consecutive members.
func probeBatch(keys []uint64, i int) []uint64 {
	lo := 1 + i*probeBatchKeys%(len(keys)-probeBatchKeys)
	return keys[lo : lo+probeBatchKeys]
}

// probeServer sends the probe of every endpoint the traced segments (sd)
// did not reach, between two /metrics scrapes, and checks every answer.
func (b *bench) probeServer(sd serverDelta) (serverDelta, error) {
	before, err := scrapeMetrics(b.srv.addr)
	if err != nil {
		return serverDelta{}, err
	}
	cl, keys := b.clients[0], b.s.keys
	var t tally
	if sd.Handlers["contains"].NsCount == 0 {
		for i := 0; i < probeReads; i++ {
			ok, err := cl.contains(probeRead(keys, i))
			t.add(checked(ok, err))
		}
	}
	if sd.Handlers["batch"].NsCount == 0 {
		for i := 0; i < probeBatches; i++ {
			t.add(cl.sweep(probeBatch(keys, i), nil))
		}
	}
	for i := 0; i < probeWrites; i++ {
		changed, err := cl.write(probeKey(keys), i%2 == 0)
		t.add(checked(changed, err))
	}
	after, err := scrapeMetrics(b.srv.addr)
	if err != nil {
		return serverDelta{}, err
	}
	if t.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: server probe: %d of %d answers wrong or failed\n", t.failed, t.ops)
	}
	b.total.add(t)
	return deltaOf(before, after), nil
}

// checked tallies one probe op whose right answer is true.
func checked(ok bool, err error) tally {
	switch {
	case err != nil:
		return tally{ops: 1, failed: 1}
	case !ok:
		return tally{ops: 1, failed: 1, wrong: 1}
	}
	return tally{ops: 1}
}

// layerMetrics attributes the traced closed loop's request time, and the
// server CPU time it took, to layers. pd is the server probe's delta.
func (b *bench) layerMetrics(tr *tracer, l *ladder, sd, pd serverDelta, cpu time.Duration, untraced, closed, open phase, ppq float64) map[string]metric {
	calls, busy := tr.layerStats()
	l.dyn.Quiesce()
	dst := l.dyn.Stats()
	batch := float64(cmp.Or(b.s.def.batch, probeBatchKeys))
	perCall := func(layer uint8) float64 {
		if calls[layer] == 0 {
			return 0
		}
		return float64(busy[layer]) / float64(calls[layer])
	}
	perKey := func(layer uint8) float64 { return perCall(layer) / batch }

	// An endpoint the workload never reaches is priced on the probe, and so
	// is the write path.
	perWrite := func(x float64) float64 {
		return safeDiv(x, pd.Handlers["insert"].Requests+pd.Handlers["delete"].Requests)
	}
	handlerUs := func(h string) float64 {
		if sd.Handlers[h].NsCount > 0 {
			return sd.Handlers[h].meanUs()
		}
		return pd.Handlers[h].meanUs()
	}

	// The facade rung the handlers call is the one with the server's
	// telemetry; its cost per request of each endpoint.
	facadeNs := map[string]float64{
		"contains": perCall(layerServedContains),
		"batch":    perCall(layerServedBatch),
		"insert":   perCall(layerServedWrite),
		"delete":   perCall(layerServedWrite),
	}
	handlerSelfNs := sd.HandlerNsTotal
	for h, ns := range facadeNs {
		handlerSelfNs -= sd.Handlers[h].NsCount * ns
	}
	handlerMeanUs, handlerSelfUs := 0.0, 0.0
	if sd.HandlerRequests > 0 {
		handlerMeanUs = sd.HandlerNsTotal / sd.HandlerRequests / 1e3
		handlerSelfUs = handlerSelfNs / sd.HandlerRequests / 1e3
	}
	clientUs := mean(closed.lat) / 1e3
	transportUs := clientUs - handlerMeanUs

	m := map[string]metric{
		"core.contains_ns":                    {perCall(layerCoreContains), "ns"},
		"core.batch_ns_per_key":               {perKey(layerCoreBatch), "ns"},
		"core.build_ms":                       {median(l.buildMs), "ms"},
		"core.probes_per_query":               {ppq, "count"},
		"dynamic.contains_ns":                 {perCall(layerDynamicContains), "ns"},
		"dynamic.batch_ns_per_key":            {perKey(layerDynamicBatch), "ns"},
		"dynamic.write_ns":                    {perCall(layerDynamicWrite), "ns"},
		"dynamic.write_probes_per_write":      {perWrite(pd.ClaimProbes), "count"},
		"dynamic.cas_retries_per_write":       {perWrite(pd.CASRetries), "count"},
		"dynamic.rebuilds_per_kwrite":         {1000 * perWrite(pd.Rebuilds), "count"},
		"dynamic.rebuild_ms_mean":             {safeDiv(pd.RebuildNsSum, pd.RebuildNsCount) / 1e6, "ms"},
		"telemetry.contains_overhead_ns":      {perCall(layerServedContains) - perCall(layerFacadeContains), "ns"},
		"telemetry.batch_overhead_ns_per_key": {perKey(layerServedBatch) - perKey(layerFacadeBatch), "ns"},
		"telemetry.write_overhead_ns":         {perCall(layerServedWrite) - perCall(layerFacadeWrite), "ns"},
		"facade.contains_ns":                  {perCall(layerServedContains), "ns"},
		"facade.batch_ns_per_key":             {perKey(layerServedBatch), "ns"},
		"facade.write_ns":                     {perCall(layerServedWrite), "ns"},
		"server.handler_us.contains":          {handlerUs("contains"), "us"},
		"server.handler_us.batch":             {handlerUs("batch"), "us"},
		"server.handler_us.insert":            {handlerUs("insert"), "us"},
		"server.handler_us.delete":            {handlerUs("delete"), "us"},
		"server.handler_self_us":              {handlerSelfUs, "us"},
		"transport.us_per_request":            {transportUs, "us"},
		"driver.send_lag_p99_us":              {float64(percentile(open.lag, 0.99)) / 1e3, "us"},
		"driver.trace_overhead_frac":          {1 - closed.opsPerSec()/untraced.opsPerSec(), "frac"},
	}

	// Self time of each rung: its mean minus the mean of the rung it wraps.
	b.rec.Ladder = map[string]float64{
		"client_us_per_request":         clientUs,
		"handler_us_per_request":        handlerMeanUs,
		"self.dynamic.contains_ns":      perCall(layerDynamicContains) - perCall(layerCoreContains),
		"self.facade.contains_ns":       perCall(layerFacadeContains) - perCall(layerDynamicContains),
		"self.dynamic.batch_ns_key":     perKey(layerDynamicBatch) - perKey(layerCoreBatch),
		"self.facade.batch_ns_key":      perKey(layerFacadeBatch) - perKey(layerDynamicBatch),
		"self.facade.write_ns":          perCall(layerFacadeWrite) - perCall(layerDynamicWrite),
		"server_probes_per_query":       safeDiv(sd.Probes, sd.Queries),
		"ladder_requests_per_rung":      float64(b.s.def.ladderReqs),
		"inproc_write_probes_per_write": safeDiv(float64(dst.WriteProbes), float64(calls[layerDynamicWrite])),
		"inproc_rebuilds":               float64(dst.Epoch - 1),
		"traced_closed_ops_per_s":       closed.opsPerSec(),
		"untraced_closed_ops_per_s":     untraced.opsPerSec(),
	}

	// The share of a request each workload's rationale says dominates it,
	// of the client-observed request time and of the server's CPU time.
	// The server's CPU serves both connections' handlers, so a handler's
	// wall time includes waits for the CPU that the in-process rungs never
	// see; the CPU share leaves those waits out.
	readNs := sd.Handlers["contains"].NsCount*facadeNs["contains"] + sd.Handlers["batch"].NsCount*facadeNs["batch"]
	cpuNs := float64(cpu.Nanoseconds())
	b.rec.Ladder["server_cpu_us_per_request"] = safeDiv(cpuNs, sd.HandlerRequests) / 1e3
	b.rec.Checks = map[string]float64{
		"server_plus_transport_share": safeDiv(transportUs+handlerSelfUs, clientUs),
		"read_rungs_share":            safeDiv(readNs/1e3, sd.HandlerRequests*clientUs),
		"read_rungs_cpu_share":        safeDiv(readNs, cpuNs),
	}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
