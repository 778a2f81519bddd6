// Command perfbench is the repository benchmark. It starts the unmodified
// cmd/lcds-server (-n 32768, every other flag at its default) on one CPU,
// drives it from the other over two loopback connections — first
// closed-loop, then open-loop at a fixed offered rate, each in windows that
// alternate with a reference server's (reference.go) — checks every answer,
// and prints one JSON result line.
//
// With -trace 0 the result holds the end-to-end metrics. With -trace 1 it
// holds the per-layer metrics: the run repeats the closed loop with client
// spans, scrapes /metrics around it, saves a server CPU profile, then stops
// the server and replays the same schedule in-process through each layer's
// public API (core → dynamic → facade → facade with telemetry), one span
// per call. Spans, profile and a run record go to -out.
//
// Run it through perfbench/run.sh from the repository root, which builds
// the server and this driver from source:
//
//	bash perfbench/run.sh --rates read-batch=120000 --workload read-batch --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// setups is how many times an untraced run starts the server; setup_s
	// is their median.
	setups = 5
	// warmup is the closed-loop stretch before measuring, so caches fill.
	warmup = time.Second
	// maxSendLagP90 is the open-loop generator lateness beyond which a run
	// is invalid: the schedule, not the server, would set the latencies. A
	// generator late on fewer than a tenth of its sends cannot move the
	// reported open-loop median far; the p99 is no test, because the
	// machine stalls the client's CPU too, for up to 65 ms, and on
	// read-batch's 117 requests/s a dozen stalls in a run put it past 2 ms.
	maxSendLagP90 = 2 * time.Millisecond
	// ladderRounds splits the in-process replay so each rung runs in turn.
	ladderRounds = 4
	// windowLen is the length of the measured windows; each server window
	// is followed by a reference window. /proc counts CPU time in 10ms
	// ticks, about 1% of the server's CPU time in a closed-loop window.
	windowLen = 500 * time.Millisecond
	// clientProcs is the driver's GOMAXPROCS: a P per connection, because
	// an open-loop connection keeps its P while it sleeps until a request is
	// due.
	clientProcs = conns
)

type config struct {
	server  string
	out     string
	def     workloadDef
	seed    uint64
	seconds int
	trace   bool
	rate    float64 // open-loop offered ops/s
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is stored with every result: what was run, on what, and the
// raw figures behind each metric.
type runRecord struct {
	Workload         string                 `json:"workload"`
	Scenario         string                 `json:"scenario"`
	Trace            bool                   `json:"trace"`
	ScheduleSeed     uint64                 `json:"schedule_seed"`
	DatasetSeed      uint64                 `json:"dataset_seed"`
	N                int                    `json:"n"`
	Nproc            int                    `json:"nproc"`
	ClientGOMAXPROCS int                    `json:"client_gomaxprocs"`
	ServerGOMAXPROCS int                    `json:"server_gomaxprocs"`
	GoVersion        string                 `json:"go_version"`
	Conns            int                    `json:"conns"`
	OfferedOpsPerSec float64                `json:"offered_ops_per_s"`
	OfferedReqPerSec float64                `json:"offered_requests_per_s"`
	SendLagP90Us     float64                `json:"send_lag_p90_us"`
	SendLagP99Us     float64                `json:"send_lag_p99_us"`
	SendLagSamples   int                    `json:"send_lag_samples"`
	Valid            bool                   `json:"valid"`
	SetupSeconds     []float64              `json:"setup_seconds,omitempty"`
	Phases           []phase                `json:"phases"`
	Latency          map[string][]quantile  `json:"latency"`
	Figures          map[string]figures     `json:"figures,omitempty"`
	HostSpeed        float64                `json:"host_speed,omitempty"`
	FailedFrac       float64                `json:"failed_frac"`
	Server           map[string]serverDelta `json:"server_deltas,omitempty"`
	Ladder           map[string]float64     `json:"ladder,omitempty"`
	Checks           map[string]float64     `json:"dominant_layer_checks,omitempty"`
	Files            []string               `json:"files,omitempty"`
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == referenceArg {
		err := serveReference()
		fmt.Fprintln(os.Stderr, "perfbench reference:", err)
		os.Exit(1)
	}
	cfg, err := parseFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec)
	if err == nil {
		fmt.Println(string(line))
		err = os.WriteFile(filepath.Join(cfg.out, fmt.Sprintf("%s-trace%d-seed%d.json", cfg.def.name, btoi(cfg.trace), cfg.seed)), line, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record:", err)
		os.Exit(1)
	}
	if !rec.Valid {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: open-loop send lag p90 %.0fµs exceeds %v\n", rec.SendLagP90Us, maxSendLagP90)
		os.Exit(3)
	}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func parseFlags() (config, error) {
	var (
		cfg   config
		name  string
		trace int
		rates string
	)
	flag.StringVar(&cfg.server, "server", "", "lcds-server binary to benchmark")
	flag.StringVar(&cfg.out, "out", "", "directory for run records, spans and CPU profiles")
	flag.StringVar(&name, "workload", "", "workload: read-single or read-batch")
	flag.Uint64Var(&cfg.seed, "seed", 1, "schedule seed (the server's dataset seed stays 1)")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds: half closed loop, half open loop")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&rates, "rates", "", "open-loop offered ops/s per workload: name=rate,...")
	flag.Parse()

	if cfg.server == "" || cfg.out == "" {
		return cfg, errors.New("-server and -out are required (run through perfbench/run.sh)")
	}
	def, err := lookupWorkload(name)
	if err != nil {
		return cfg, err
	}
	cfg.def = def
	if cfg.seconds < 2 {
		return cfg, fmt.Errorf("-seconds %d: need at least 2", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	cfg.trace = trace == 1
	for _, kv := range strings.Split(rates, ",") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == name {
			if cfg.rate, err = strconv.ParseFloat(v, 64); err != nil || cfg.rate <= 0 {
				return cfg, fmt.Errorf("bad rate %q", kv)
			}
		}
	}
	if cfg.rate == 0 {
		return cfg, fmt.Errorf("-rates names no offered rate for %s", name)
	}
	return cfg, os.MkdirAll(cfg.out, 0o755)
}

// bench is one run's live state: the server, the connections and the
// schedule cursor they share, and the same for the reference server.
type bench struct {
	cfg        config
	s          *stream
	srv        *serverProc
	clients    []*client
	cur        cursor
	ref        *serverProc
	refClients []*client
	refCur     cursor
	total      tally
	rec        *runRecord
}

func run(cfg config) (result, *runRecord, error) {
	s, err := newStream(cfg.def, cfg.seed)
	if err != nil {
		return result{}, nil, err
	}
	nproc := runtime.NumCPU()
	if err := pinSelf(clientCPU); err != nil {
		return result{}, nil, err
	}
	runtime.GOMAXPROCS(clientProcs)
	b := &bench{cfg: cfg, s: s, rec: &runRecord{
		Workload:         cfg.def.name,
		Scenario:         cfg.def.spec,
		Trace:            cfg.trace,
		ScheduleSeed:     cfg.seed,
		DatasetSeed:      datasetSeed,
		N:                serverN,
		Nproc:            nproc,
		ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS: serverProcs,
		GoVersion:        runtime.Version(),
		Conns:            conns,
		OfferedOpsPerSec: cfg.rate,
		OfferedReqPerSec: cfg.rate / float64(max(cfg.def.batch, 1)),
		Latency:          map[string][]quantile{},
		Server:           map[string]serverDelta{},
	}}

	self, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	defer func() {
		for _, p := range []*serverProc{b.srv, b.ref} {
			if p != nil {
				p.stop()
			}
		}
	}()
	starts := 1
	if !cfg.trace {
		starts = setups
	}
	for i := 0; i < starts; i++ {
		if b.srv != nil {
			b.srv.stop()
		}
		var took time.Duration
		if b.srv, took, err = startServer(cfg.server, "-addr", "127.0.0.1:0", "-n", strconv.Itoa(serverN)); err != nil {
			return result{}, nil, err
		}
		b.rec.SetupSeconds = append(b.rec.SetupSeconds, took.Seconds())
	}
	if b.clients, err = dialAll(b.srv.addr, s); err != nil {
		return result{}, nil, err
	}
	b.measure(closedLoop("warmup", b.clients, &b.cur, warmup, nil))
	if cfg.trace {
		return b.traced()
	}
	if b.ref, _, err = startServer(self, referenceArg); err != nil {
		return result{}, nil, err
	}
	if b.refClients, err = dialAll(b.ref.addr, s); err != nil {
		return result{}, nil, err
	}
	closedLoop("reference warmup", b.refClients, &b.refCur, warmup, nil)
	return b.untraced()
}

// dialAll opens the run's conns connections to addr.
func dialAll(addr string, s *stream) ([]*client, error) {
	var cls []*client
	for i := 0; i < conns; i++ {
		cl, err := newClient(addr, s)
		if err != nil {
			for _, c := range cls {
				c.c.close()
			}
			return nil, err
		}
		cls = append(cls, cl)
	}
	return cls, nil
}

// measure folds a phase into the run's totals and record.
func (b *bench) measure(p phase) phase {
	b.total.add(tally{ops: p.Ops, failed: p.Failed, wrong: p.Wrong})
	b.rec.Phases = append(b.rec.Phases, p)
	if p.Name != "warmup" {
		b.rec.Latency[p.Name] = []quantile{quantileOf(p.lat, 0.5), quantileOf(p.lat, 0.99), quantileOf(p.lat, 0.999)}
	}
	return p
}

// half is the length of one measured phase: half the run's seconds.
func (b *bench) half() time.Duration { return time.Duration(b.cfg.seconds) * time.Second / 2 }

// openLoop runs the open loop at the offered rate for d.
func (b *bench) openLoop(name string, d time.Duration, tr *tracer) phase {
	return openLoop(name, b.clients, &b.cur, b.rec.OfferedReqPerSec, d, tr)
}

// noteSendLag records the open loop's generator lateness and judges the
// run's validity by it.
func (b *bench) noteSendLag(open phase) {
	p90 := percentile(open.lag, 0.9)
	b.rec.SendLagP90Us = float64(p90) / 1e3
	b.rec.SendLagP99Us = float64(percentile(open.lag, 0.99)) / 1e3
	b.rec.SendLagSamples = len(open.lag)
	b.rec.Valid = time.Duration(p90) <= maxSendLagP90
}

// figures are the end-to-end figures that the machine's speed moves, as
// measured against one server.
type figures struct {
	OpsPerSec  float64 `json:"ops_per_s"`
	ClosedP50  float64 `json:"closed_p50_us"`
	ClosedP99  float64 `json:"closed_p99_us"`
	OpenP50    float64 `json:"open_p50_us"`
	CPUUsPerOp float64 `json:"server_cpu_us_per_op"`
}

// figuresOf takes one server's figures; the percentiles are exact, over
// all of a loop's requests.
func figuresOf(closed, open phase, cpu time.Duration) figures {
	us := func(sorted []int64, p float64) float64 { return float64(percentile(sorted, p)) / 1e3 }
	return figures{
		OpsPerSec:  closed.opsPerSec(),
		ClosedP50:  us(closed.lat, 0.5),
		ClosedP99:  us(closed.lat, 0.99),
		OpenP50:    us(open.lat, 0.5),
		CPUUsPerOp: float64(cpu.Nanoseconds()) / 1e3 / float64(closed.Ops),
	}
}

// atSizedSpeed scales each of the server's figures by the reference's
// figure on the machine the benchmark was sized on over the reference's
// figure in this run.
func atSizedSpeed(srv, ref, sized figures) figures {
	return figures{
		OpsPerSec:  srv.OpsPerSec * sized.OpsPerSec / ref.OpsPerSec,
		ClosedP50:  srv.ClosedP50 * sized.ClosedP50 / ref.ClosedP50,
		ClosedP99:  srv.ClosedP99 * sized.ClosedP99 / ref.ClosedP99,
		OpenP50:    srv.OpenP50 * sized.OpenP50 / ref.OpenP50,
		CPUUsPerOp: srv.CPUUsPerOp * sized.CPUUsPerOp / ref.CPUUsPerOp,
	}
}

// alternate runs loop for b.half() as pairs of windows, one against the
// server and one against the reference, and returns each side's phase and
// the CPU time its process spent in its windows, with the server's
// /metrics delta over the whole stretch.
func (b *bench) alternate(name string, loop func(cls []*client, cur *cursor, d time.Duration) phase) (srv, ref phase, srvCPU, refCPU time.Duration, d serverDelta, err error) {
	var srvParts, refParts []phase
	window := func(p *serverProc, cls []*client, cur *cursor, parts *[]phase, cpu *time.Duration) error {
		before, err := p.cpuTime()
		if err != nil {
			return err
		}
		*parts = append(*parts, loop(cls, cur, windowLen))
		after, err := p.cpuTime()
		*cpu += after - before
		return err
	}
	var werr error
	srv, d, err = b.scraped(func() phase {
		for i := 0; i < max(int(b.half()/(2*windowLen)), 1) && werr == nil; i++ {
			werr = errors.Join(
				window(b.srv, b.clients, &b.cur, &srvParts, &srvCPU),
				window(b.ref, b.refClients, &b.refCur, &refParts, &refCPU))
		}
		return combine(name, srvParts...)
	})
	ref = combine("reference "+name, refParts...)
	if err = errors.Join(err, werr); err == nil && ref.Failed > 0 {
		err = fmt.Errorf("reference server: %d of %d ops failed", ref.Failed, ref.Ops)
	}
	return srv, ref, srvCPU, refCPU, d, err
}

func (b *bench) untraced() (result, *runRecord, error) {
	closed, closedRef, cpu, refCPU, cd, err := b.alternate("closed", func(cls []*client, cur *cursor, d time.Duration) phase {
		return closedLoop("closed", cls, cur, d, nil)
	})
	if err != nil {
		return result{}, nil, err
	}
	open, openRef, _, _, od, err := b.alternate("open", func(cls []*client, cur *cursor, d time.Duration) phase {
		return openLoop("open", cls, cur, b.rec.OfferedReqPerSec, d, nil)
	})
	if err != nil {
		return result{}, nil, err
	}
	b.measure(closed)
	b.measure(open)
	b.rec.Server[closed.Name], b.rec.Server[open.Name] = cd, od
	b.noteSendLag(open)
	b.finish()
	rss, err := b.srv.peakRSSMiB()
	if err != nil {
		return result{}, nil, err
	}

	srv, ref, sized := figuresOf(closed, open, cpu), figuresOf(closedRef, openRef, refCPU), b.cfg.def.sized
	at := atSizedSpeed(srv, ref, sized)
	b.rec.Figures = map[string]figures{"server": srv, "reference": ref, "reference_sized": sized, "server_at_sized_speed": at}
	b.rec.HostSpeed = ref.OpsPerSec / sized.OpsPerSec
	m := map[string]metric{
		"setup_s":              {median(b.rec.SetupSeconds), "s"},
		"ops_per_s":            {at.OpsPerSec, "1/s"},
		"closed_p50_us":        {at.ClosedP50, "us"},
		"closed_p99_us":        {at.ClosedP99, "us"},
		"open_p50_us":          {at.OpenP50, "us"},
		"server_cpu_us_per_op": {at.CPUUsPerOp, "us"},
		"server_rss_mib":       {rss, "MiB"},
	}
	return b.result(m), b.rec, nil
}

// finish sweeps every member and the fixed non-members through /batch.
func (b *bench) finish() {
	t := b.clients[0].sweep(b.s.keys, nonMemberKeys())
	if t.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: final sweep: %d of %d answers wrong or failed\n", t.failed, t.ops)
	}
	b.total.add(t)
}

func (b *bench) result(m map[string]metric) result {
	b.rec.FailedFrac = float64(b.total.failed) / float64(b.total.ops)
	return result{
		Correct:   b.total.failed == 0,
		Attempted: b.total.ops,
		Failed:    b.total.failed,
		Metrics:   m,
	}
}
