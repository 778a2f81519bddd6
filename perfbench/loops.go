package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sleepPrecise blocks the thread in nanosleep, which wakes within the
// kernel's timer slack (50µs). The runtime's timers park sleepers on epoll
// with millisecond granularity, which would make the open-loop generator up
// to a millisecond late on every sub-millisecond gap between requests. The
// sleeping thread keeps its P, so the driver runs a P per connection.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// phase is the outcome of driving the server for one stretch of time.
type phase struct {
	Name     string  `json:"name"`
	Seconds  float64 `json:"seconds"`
	Requests int     `json:"requests"`
	Ops      int     `json:"ops"`
	Failed   int     `json:"failed"`
	Wrong    int     `json:"wrong"`
	// Unsent counts open-loop requests still unsent when the drain limit
	// passed; they count as failed.
	Unsent int `json:"unsent,omitempty"`

	lat []int64 // per-request latency, ns, ascending
	lag []int64 // open loop: how late the generator sent, ns, ascending
}

func (p phase) opsPerSec() float64 { return float64(p.Ops) / p.Seconds }

// cursor hands out request indices shared by all connections, so the
// connections together send the stream's requests in order.
type cursor struct{ next atomic.Int64 }

func (c *cursor) claim() int { return int(c.next.Add(1) - 1) }

// workerOut is one connection's share of a phase.
type workerOut struct {
	t     tally
	reqs  int
	lat   []int64
	lag   []int64
	spans []span
}

// runWorkers runs fn(0..n-1) on n goroutines and waits for all of them.
func runWorkers(n int, fn func(i int, out *workerOut)) []workerOut {
	outs := make([]workerOut, n)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, &outs[i])
		}(i)
	}
	wg.Wait()
	return outs
}

// combine folds phases run as separate segments into one.
func combine(name string, ps ...phase) phase {
	out := phase{Name: name}
	var lats, lags [][]int64
	for _, p := range ps {
		out.Seconds += p.Seconds
		out.Requests += p.Requests
		out.Ops += p.Ops
		out.Failed += p.Failed
		out.Wrong += p.Wrong
		out.Unsent += p.Unsent
		lats = append(lats, p.lat)
		lags = append(lags, p.lag)
	}
	out.lat = sortedCopy(lats...)
	out.lag = sortedCopy(lags...)
	return out
}

// merge folds the per-connection outputs into a phase.
func merge(name string, secs float64, outs []workerOut, tr *tracer) phase {
	p := phase{Name: name, Seconds: secs}
	var lats, lags [][]int64
	for _, o := range outs {
		p.Requests += o.reqs
		p.Ops += o.t.ops
		p.Failed += o.t.failed
		p.Wrong += o.t.wrong
		lats = append(lats, o.lat)
		lags = append(lags, o.lag)
		tr.add(o.spans)
	}
	p.lat = sortedCopy(lats...)
	p.lag = sortedCopy(lags...)
	return p
}

// closedLoop keeps one request outstanding per connection for d: each
// connection sends its next request as soon as the previous one answers.
// With tr non-nil every request is recorded as a client span.
func closedLoop(name string, clients []*client, cur *cursor, d time.Duration, tr *tracer) phase {
	start := time.Now()
	deadline := start.Add(d)
	outs := runWorkers(len(clients), func(i int, out *workerOut) {
		cl := clients[i]
		var r request
		for {
			t0 := time.Now()
			if !t0.Before(deadline) {
				return
			}
			j := cur.claim()
			cl.s.at(j, &r)
			res := cl.send(&r)
			t1 := time.Now()
			out.t.add(res)
			out.reqs++
			out.lat = append(out.lat, t1.Sub(t0).Nanoseconds())
			if tr != nil {
				out.spans = append(out.spans, tr.clientSpan(j, &r, t0, t1))
			}
		}
	})
	return merge(name, time.Since(start).Seconds(), outs, tr)
}

// openLoop sends requests on a fixed schedule — request j is due at
// start + j/rate — whatever the server's state: a connection that is free
// early sleeps until the next request is due, one that is busy sends late.
// Latency runs from the due time, so time spent queued behind a slow
// request is charged to the requests that waited. The generator's own
// lateness (a free connection waking after the due time) is recorded
// separately as send lag. Requests due within d are all sent, up to a drain
// limit of another d; any still unsent count as failed.
func openLoop(name string, clients []*client, cur *cursor, reqPerSec float64, d time.Duration, tr *tracer) phase {
	interval := time.Duration(float64(time.Second) / reqPerSec)
	total := int(d / interval)
	start := time.Now().Add(time.Millisecond)
	drainLimit := start.Add(2 * d)
	base := cur.claim() // the phase's requests follow the previous phase's
	var next cursor
	outs := runWorkers(len(clients), func(i int, out *workerOut) {
		cl := clients[i]
		var r request
		for {
			k := next.claim()
			if k >= total {
				return
			}
			due := start.Add(time.Duration(k) * interval)
			now := time.Now()
			if now.After(drainLimit) {
				return
			}
			lag := int64(0)
			if wait := due.Sub(now); wait > 0 {
				sleepPrecise(wait)
				now = time.Now()
				lag = now.Sub(due).Nanoseconds()
			}
			j := base + k
			cl.s.at(j, &r)
			res := cl.send(&r)
			t1 := time.Now()
			out.t.add(res)
			out.reqs++
			out.lat = append(out.lat, t1.Sub(due).Nanoseconds())
			out.lag = append(out.lag, lag)
			if tr != nil {
				out.spans = append(out.spans, tr.clientSpan(j, &r, now, t1))
			}
		}
	})
	// Later phases continue after this phase's requests.
	cur.next.Store(int64(base + total))
	p := merge(name, d.Seconds(), outs, tr)
	p.Unsent = total - p.Requests
	unsentOps := p.Unsent * max(clients[0].s.def.batch, 1)
	p.Ops += unsentOps
	p.Failed += unsentOps
	return p
}
