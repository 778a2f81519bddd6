package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// scenarioRun is one scenario's ledger from a sweep: ops driven, ops that
// failed (transport error, non-200 status or wrong answer), the first
// failure, and the exact p99 of the per-op round trips.
type scenarioRun struct {
	ops, errs int
	firstErr  string
	p99       time.Duration
}

// opAnswer is the union of the /contains, /insert and /delete answers.
type opAnswer struct {
	Member   bool `json:"member"`
	Inserted bool `json:"inserted"`
	Deleted  bool `json:"deleted"`
}

// driveScenario serves h through run on a loopback listener and drives
// schedule positions 0..ops-1 of sc over keep-alive HTTP. Read-only
// schedules use two connections and every answer must be member: true.
// Writing schedules use one connection, so answers arrive in schedule
// order, and each is checked against a reference set updated in that
// order, starting from the member keys.
func driveScenario(t *testing.T, h http.Handler, sc *workload.Scenario, keys []uint64, ops int) scenarioRun {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- run(ctx, ln, h) }()

	conns := 1
	if sc.ReadOnly() {
		conns = 2
	}
	tr := &http.Transport{MaxIdleConnsPerHost: conns}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	base := "http://" + ln.Addr().String()
	ref := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		ref[k] = true
	}

	type ledger struct {
		lat      []time.Duration
		errs     int
		firstErr string
	}
	ledgers := make([]ledger, conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range ledgers {
		wg.Add(1)
		go func(l *ledger) {
			defer wg.Done()
			fail := func(i int, op workload.Op, msg string) {
				if l.errs == 0 {
					l.firstErr = fmt.Sprintf("position %d (%s %d): %s", i, op.Kind, op.Key, msg)
				}
				l.errs++
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= ops {
					return
				}
				op := sc.At(i)
				var resp *http.Response
				var err error
				start := time.Now()
				switch op.Kind {
				case workload.OpRead:
					resp, err = client.Get(fmt.Sprintf("%s/contains?key=%d", base, op.Key))
				case workload.OpInsert:
					resp, err = client.Post(fmt.Sprintf("%s/insert?key=%d", base, op.Key), "", nil)
				case workload.OpDelete:
					resp, err = client.Post(fmt.Sprintf("%s/delete?key=%d", base, op.Key), "", nil)
				}
				if err != nil {
					fail(i, op, err.Error())
					continue
				}
				var ans opAnswer
				decErr := json.NewDecoder(resp.Body).Decode(&ans)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				l.lat = append(l.lat, time.Since(start))
				switch {
				case resp.StatusCode != http.StatusOK:
					fail(i, op, resp.Status)
					continue
				case decErr != nil:
					fail(i, op, decErr.Error())
					continue
				}
				// Reads leave ref alone, so the concurrent read-only workers
				// only ever read the map.
				var got, want bool
				switch op.Kind {
				case workload.OpRead:
					got, want = ans.Member, ref[op.Key]
				case workload.OpInsert:
					got, want = ans.Inserted, !ref[op.Key]
					ref[op.Key] = true
				case workload.OpDelete:
					got, want = ans.Deleted, ref[op.Key]
					ref[op.Key] = false
				}
				if got != want {
					fail(i, op, fmt.Sprintf("answered %v, reference %v", got, want))
				}
			}
		}(&ledgers[c])
	}
	wg.Wait()
	tr.CloseIdleConnections()
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("run: %v", err)
	}

	r := scenarioRun{ops: ops}
	var lat []time.Duration
	for _, l := range ledgers {
		lat = append(lat, l.lat...)
		if l.errs > 0 && r.errs == 0 {
			r.firstErr = l.firstErr
		}
		r.errs += l.errs
	}
	if len(lat) > 0 {
		slices.Sort(lat)
		r.p99 = lat[(len(lat)*99+99)/100-1]
	}
	return r
}

// sweepScenarios drives every registered scenario against its own fresh
// server built the way main builds it. wrap, when non-nil, interposes on
// a scenario's handler.
func sweepScenarios(t *testing.T, shards, ops int, wrap func(spec string, h http.Handler) http.Handler) map[string]scenarioRun {
	t.Helper()
	const n, seed = 4096, 1
	keys := workload.MemberKeys(n, seed)
	runs := map[string]scenarioRun{}
	for _, spec := range workload.ScenarioNames() {
		_, mux, err := newServer(n, seed, shards, 0.1, defaultTelemetry)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := workload.NewScenario(spec, keys, seed)
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = mux
		if wrap != nil {
			h = wrap(spec, h)
		}
		runs[spec] = driveScenario(t, h, sc, keys, ops)
	}
	return runs
}

// sweepProblems is the sweep's gate: every registered scenario present,
// ops > 0, zero failed ops and a p99 under one second.
func sweepProblems(runs map[string]scenarioRun) []string {
	var out []string
	for _, spec := range workload.ScenarioNames() {
		r, ok := runs[spec]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: missing from the sweep", spec))
		case r.ops == 0:
			out = append(out, fmt.Sprintf("%s: no ops driven", spec))
		case r.errs > 0:
			out = append(out, fmt.Sprintf("%s: %d failed ops, first at %s", spec, r.errs, r.firstErr))
		case r.p99 <= 0 || r.p99 >= time.Second:
			out = append(out, fmt.Sprintf("%s: p99 %v outside (0, 1s)", spec, r.p99))
		}
	}
	return out
}

// TestServiceScenarios drives every registered scenario, writes included,
// through the real mux over a loopback listener, for the default server
// and for a 4-shard server, and checks every answer.
func TestServiceScenarios(t *testing.T) {
	for _, cfg := range []struct {
		name   string
		shards int
	}{
		{"default", 1},
		{"shards4", 4},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			runs := sweepScenarios(t, cfg.shards, 4000, nil)
			for _, spec := range workload.ScenarioNames() {
				r := runs[spec]
				t.Logf("%-16s ops=%d errors=%d p99=%v", spec, r.ops, r.errs, r.p99)
			}
			for _, p := range sweepProblems(runs) {
				t.Error(p)
			}
		})
	}
}

// flipAnswer serves h but flips the boolean in the answer to its nth
// request (counting from 1), e.g. "member":true becomes "member":false.
func flipAnswer(h http.Handler, nth int64) http.Handler {
	var seen atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) != nth {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if bytes.Contains(body, []byte("true")) {
			body = bytes.Replace(body, []byte("true"), []byte("false"), 1)
		} else {
			body = bytes.Replace(body, []byte("false"), []byte("true"), 1)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestServiceScenariosPlantedFault: one flipped answer in a read-only
// scenario and one in a writing scenario must each surface as exactly one
// failed op, and nothing else may.
func TestServiceScenariosPlantedFault(t *testing.T) {
	planted := map[string]bool{"uniform": true, "flood": true}
	runs := sweepScenarios(t, 1, 200, func(spec string, h http.Handler) http.Handler {
		if planted[spec] {
			return flipAnswer(h, 50)
		}
		return h
	})
	problems := sweepProblems(runs)
	if len(problems) != len(planted) {
		t.Fatalf("sweep reported %q, want one problem per planted fault %v", problems, planted)
	}
	for _, p := range problems {
		spec, _, _ := strings.Cut(p, ":")
		if !planted[spec] || runs[spec].errs != 1 {
			t.Errorf("unexpected problem %q", p)
		}
	}
}
