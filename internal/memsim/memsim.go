// Package memsim turns contention into observable slowdown.
//
// The paper motivates its contention measure with shared-memory
// multiprocessors (§1): when m queries run simultaneously, the expected
// number of probes to cell j is m·Φ(j) by linearity of expectation, and a
// memory cell serves one access at a time. This package simulates exactly
// that execution model — the hot-spot cost model of Dwork, Herlihy and
// Waarts [6] and of combining-network studies [13]: each memory module
// serves one request per cycle, concurrent requests to the same module
// queue, and a processor issues its next probe only after the previous one
// is served.
//
// The simulator is deterministic given its inputs: requests arriving in the
// same cycle are enqueued in processor order.
package memsim

import (
	"fmt"
	"sort"

	"repro/internal/cellprobe"
	"repro/internal/dist"
	"repro/internal/rng"
)

// Config controls the memory system.
type Config struct {
	// Modules is the number of memory modules. 0 means one module per
	// cell (the pure cell-contention model of the paper). Otherwise cells
	// are interleaved: cell c lives on module c mod Modules.
	Modules int
	// Combining enables read combining à la hot-spot combining networks
	// (Tzeng–Lawrie [13]): all requests for the SAME cell that are queued
	// at a module when it serves that cell complete together in that
	// cycle. Requests for different cells on a shared module still
	// serialize. This is the classic contention-*resolution* mitigation,
	// contrasted with the paper's contention-*avoidance*.
	Combining bool
}

// Result summarizes one simulated parallel execution.
type Result struct {
	Processors  int
	TotalProbes int
	// Makespan is the number of cycles until every processor finished.
	Makespan int
	// IdealSpan is the longest single probe sequence — the makespan of a
	// conflict-free memory system.
	IdealSpan int
	// MaxQueue is the largest instantaneous module queue length observed.
	MaxQueue int
	// MaxModuleLoad is the most requests served by any single module.
	MaxModuleLoad int
	// AvgLatency is the mean cycles from issue to completion of a probe
	// (1 = served immediately).
	AvgLatency float64
}

// Slowdown is Makespan / IdealSpan — 1 means perfectly parallel, m means
// fully serialized on a hot spot.
func (r Result) Slowdown() float64 {
	if r.IdealSpan == 0 {
		return 1
	}
	return float64(r.Makespan) / float64(r.IdealSpan)
}

// Run simulates the probe sequences of len(seqs) processors against the
// configured memory system. seqs[p] lists the flat cell indices processor p
// probes, in order. All processors start at cycle 0 (a closed system); use
// RunOpen for scheduled arrivals.
func Run(seqs [][]int, cfg Config) Result {
	res, _ := run(seqs, nil, cfg)
	return res
}

// OpenResult summarizes an open-system run: queries arrive on a schedule
// and the interesting quantities are per-query latency and sustained
// throughput rather than makespan.
type OpenResult struct {
	Queries    int
	Makespan   int
	AvgLatency float64 // mean (completion − arrival + 1) per query
	MaxLatency int
	P50Latency int     // median latency
	P99Latency int     // 99th-percentile latency
	Throughput float64 // queries per cycle over the whole run
}

// RunOpen simulates queries arriving at the given cycles (arrivals[i] is
// when query i may issue its first probe). len(arrivals) must equal
// len(seqs); arrivals must be non-negative.
func RunOpen(seqs [][]int, arrivals []int, cfg Config) (OpenResult, error) {
	if len(arrivals) != len(seqs) {
		return OpenResult{}, fmt.Errorf("memsim: %d arrivals for %d queries", len(arrivals), len(seqs))
	}
	for i, a := range arrivals {
		if a < 0 {
			return OpenResult{}, fmt.Errorf("memsim: negative arrival %d for query %d", a, i)
		}
	}
	res, completions := run(seqs, arrivals, cfg)
	out := OpenResult{Queries: len(seqs), Makespan: res.Makespan}
	totalLatency := 0
	var latencies []int
	for i, done := range completions {
		if len(seqs[i]) == 0 {
			continue
		}
		l := done - arrivals[i] + 1
		totalLatency += l
		latencies = append(latencies, l)
		if l > out.MaxLatency {
			out.MaxLatency = l
		}
	}
	if res.Makespan > 0 {
		out.Throughput = float64(len(seqs)) / float64(res.Makespan)
	}
	if len(latencies) > 0 {
		out.AvgLatency = float64(totalLatency) / float64(len(latencies))
		sort.Ints(latencies)
		out.P50Latency = latencies[len(latencies)/2]
		out.P99Latency = latencies[len(latencies)*99/100]
	}
	return out, nil
}

// run is the shared engine. arrivals may be nil (all zero). It returns the
// closed-system result and the completion cycle of each processor's last
// probe (0-indexed cycles; -1 for empty sequences).
func run(seqs [][]int, arrivals []int, cfg Config) (Result, []int) {
	res := Result{Processors: len(seqs)}
	completions := make([]int, len(seqs))
	for i := range completions {
		completions[i] = -1
	}
	for _, s := range seqs {
		res.TotalProbes += len(s)
		if len(s) > res.IdealSpan {
			res.IdealSpan = len(s)
		}
	}
	if res.TotalProbes == 0 {
		return res, completions
	}
	moduleOf := func(cell int) int {
		if cfg.Modules <= 0 {
			return cell
		}
		return cell % cfg.Modules
	}

	type proc struct {
		pos   int // next probe index in seqs[p]
		ready int // first cycle at which the next probe may issue
	}
	type request struct {
		proc int
		cell int
	}
	procs := make([]proc, len(seqs))
	queues := make(map[int][]request) // module -> waiting requests, FIFO
	issued := make([]int, len(seqs))
	for i := range issued {
		issued[i] = -1
	}
	remaining := 0
	for p, s := range seqs {
		if len(s) > 0 {
			remaining++
		} else {
			procs[p].pos = len(s)
		}
	}

	totalLatency := 0
	served := make(map[int]int) // module -> service cycles used
	complete := func(rq request, cycle int) {
		p := rq.proc
		totalLatency += cycle - issued[p] + 1
		issued[p] = -1
		procs[p].pos++
		procs[p].ready = cycle + 1
		if procs[p].pos >= len(seqs[p]) {
			remaining--
			completions[p] = cycle
		}
	}
	for cycle := 0; remaining > 0; cycle++ {
		// Issue phase: processors whose previous probe completed enqueue
		// their next request, in processor order for determinism.
		for p := range procs {
			pr := &procs[p]
			if pr.pos >= len(seqs[p]) || pr.ready > cycle || issued[p] >= 0 {
				continue
			}
			if arrivals != nil && arrivals[p] > cycle {
				continue
			}
			cell := seqs[p][pr.pos]
			mod := moduleOf(cell)
			queues[mod] = append(queues[mod], request{proc: p, cell: cell})
			issued[p] = cycle
			if len(queues[mod]) > res.MaxQueue {
				res.MaxQueue = len(queues[mod])
			}
		}
		// Service phase: each module serves the front of its queue; with
		// combining, every queued request for the same cell rides along.
		for mod, q := range queues {
			front := q[0]
			rest := q[1:]
			if cfg.Combining {
				kept := rest[:0]
				for _, rq := range rest {
					if rq.cell == front.cell {
						complete(rq, cycle)
					} else {
						kept = append(kept, rq)
					}
				}
				rest = kept
			}
			if len(rest) == 0 {
				delete(queues, mod)
			} else {
				queues[mod] = append([]request(nil), rest...)
			}
			served[mod]++
			complete(front, cycle)
		}
		res.Makespan = cycle + 1
	}
	for _, c := range served {
		if c > res.MaxModuleLoad {
			res.MaxModuleLoad = c
		}
	}
	res.AvgLatency = float64(totalLatency) / float64(res.TotalProbes)
	return res, completions
}

// Prober is the slice of the dictionary surface the sequence extractor
// needs; every structure in this repository satisfies it. Contains takes
// the same rng.Source abstraction the live query path uses, so simulated
// probe sequences are drawn from exactly the replica-choice distribution
// real concurrent queries would produce.
type Prober interface {
	Table() *cellprobe.Table
	Contains(x uint64, r rng.Source) (bool, error)
}

// Sequences executes procs queries sampled from q against st and captures
// each query's exact probe sequence via the table trace hook.
func Sequences(st Prober, q dist.Dist, procs int, r *rng.RNG) ([][]int, error) {
	tab := st.Table()
	seqs := make([][]int, procs)
	var current []int
	tab.SetTrace(func(_, cell int) { current = append(current, cell) })
	defer tab.SetTrace(nil)
	for p := 0; p < procs; p++ {
		current = nil
		if _, err := st.Contains(q.Sample(r), r); err != nil {
			return nil, fmt.Errorf("memsim: query %d: %w", p, err)
		}
		seqs[p] = current
	}
	return seqs, nil
}
