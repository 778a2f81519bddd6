package main

import (
	"fmt"
	"time"

	lcds "repro"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/rng"
)

// The server's dictionary options, mirrored from cmd/lcds-server's defaults
// (-epsilon 0.1, -sample 1, one shard, no absorption) so every rung prices
// the structure the server answers from.
const (
	serverEpsilon = 0.1
	serverSample  = 1
	serverTopK    = 10
)

// rung is one in-process layer of the read/write path, called through that
// layer's public API from one goroutine.
type rung struct {
	name     string
	contains func(x uint64) (bool, error)
	batch    func(keys []uint64, out []bool) error
	write    func(x uint64, del bool) (bool, error) // nil: the layer is static

	layerContains, layerBatch, layerWrite uint8
}

// ladder holds one instance of every rung, each built at the server's n,
// dataset seed and options, bottom (core) to top (facade with telemetry).
type ladder struct {
	rungs   []rung
	core    *core.Dict
	dyn     *dynamic.Dict
	buildMs []float64 // core.Build wall times at n
}

// querySource is the replica-choice source the facade installs by default
// for the dataset seed; the core and dynamic rungs use their own copy so
// every rung draws from the same kind of source.
func querySource() rng.Source { return rng.NewSharded(datasetSeed^0x9e3779b97f4a7c15, 0) }

// newLadder builds the rungs. The core is built builds times and its build
// times recorded; the last build is the core rung.
func newLadder(keys []uint64, builds int) (*ladder, error) {
	l := &ladder{}
	// The dynamic dictionary builds its first snapshot with seed+1.
	for i := 0; i < builds; i++ {
		t0 := time.Now()
		c, err := core.Build(keys, core.Params{}, datasetSeed+1)
		if err != nil {
			return nil, fmt.Errorf("core build: %w", err)
		}
		l.buildMs = append(l.buildMs, float64(time.Since(t0).Nanoseconds())/1e6)
		l.core = c
	}
	coreSrc := querySource()
	var scratch core.QueryScratch
	l.rungs = append(l.rungs, rung{
		name: "core",
		contains: func(x uint64) (bool, error) {
			return l.core.ContainsScratch(x, coreSrc, &scratch)
		},
		batch: func(keys []uint64, out []bool) error {
			return l.core.ContainsBatch(keys, out, coreSrc, &scratch)
		},
		layerContains: layerCoreContains, layerBatch: layerCoreBatch,
	})

	dyn, err := dynamic.New(keys, dynamic.Params{Epsilon: serverEpsilon}, datasetSeed)
	if err != nil {
		return nil, fmt.Errorf("dynamic build: %w", err)
	}
	l.dyn = dyn
	dynSrc := querySource()
	l.rungs = append(l.rungs, rung{
		name:          "dynamic",
		contains:      func(x uint64) (bool, error) { return dyn.Contains(x, dynSrc) },
		batch:         func(keys []uint64, out []bool) error { return dyn.ContainsBatch(keys, out, dynSrc) },
		write:         writeFunc(dyn.Insert, dyn.Delete),
		layerContains: layerDynamicContains, layerBatch: layerDynamicBatch, layerWrite: layerDynamicWrite,
	})

	for _, served := range []bool{false, true} {
		opts := []lcds.Option{lcds.WithSeed(datasetSeed)}
		name, lc, lb, lw := "facade", layerFacadeContains, layerFacadeBatch, layerFacadeWrite
		if served {
			name = "served"
			opts = append(opts, lcds.WithTelemetry(lcds.TelemetryConfig{Sample: serverSample, TopK: serverTopK}))
			lc, lb, lw = layerServedContains, layerServedBatch, layerServedWrite
		}
		dd, err := lcds.NewDynamic(keys, serverEpsilon, opts...)
		if err != nil {
			return nil, fmt.Errorf("facade build: %w", err)
		}
		l.rungs = append(l.rungs, rung{
			name:          name,
			contains:      func(x uint64) (bool, error) { return dd.Contains(x) },
			batch:         func(keys []uint64, out []bool) error { return dd.ContainsBatch(keys, out) },
			write:         writeFunc(dd.Insert, dd.Delete),
			layerContains: lc, layerBatch: lb, layerWrite: lw,
		})
	}
	return l, nil
}

func writeFunc(ins, del func(uint64) (bool, error)) func(uint64, bool) (bool, error) {
	return func(x uint64, d bool) (bool, error) {
		if d {
			return del(x)
		}
		return ins(x)
	}
}

// replay sends requests [0, reqs) of the stream through every rung from
// one goroutine, as the server answers on one CPU. The requests go in
// rounds, each rung in turn, so slow drift of the machine spreads over all
// rungs alike. Every call is a rung span, and every answer must be true.
func (l *ladder) replay(s *stream, reqs, rounds int, tr *tracer) (tally, error) {
	var total tally
	res := make([]bool, max(s.def.batch, 1))
	var r request
	for round := 0; round < rounds; round++ {
		lo, hi := round*reqs/rounds, (round+1)*reqs/rounds
		for ri := range l.rungs {
			rg := &l.rungs[ri]
			spans := make([]span, 0, hi-lo)
			for j := lo; j < hi; j++ {
				s.at(j, &r)
				var err error
				ok, layer := true, rg.layerContains
				t0 := time.Now()
				if r.keys != nil {
					layer = rg.layerBatch
					err = rg.batch(r.keys, res)
				} else {
					ok, err = rg.contains(r.key)
				}
				t1 := time.Now()
				if err != nil {
					return total, fmt.Errorf("ladder rung %s: %w", rg.name, err)
				}
				spans = append(spans, span{id: int64(j), layer: layer, start: tr.stamp(t0), end: tr.stamp(t1)})
				if r.keys == nil {
					total.add(checked(ok, nil))
					continue
				}
				for _, m := range res[:len(r.keys)] {
					total.add(checked(m, nil))
				}
			}
			tr.add(spans)
		}
	}
	return total, nil
}

// probe calls every rung layer the replay left without a span with the
// probe probeServer sends, from one goroutine, one span per call, and checks
// every answer.
func (l *ladder) probe(keys []uint64, tr *tracer) (tally, error) {
	calls, _ := tr.layerStats()
	var t tally
	res := make([]bool, probeBatchKeys)
	for ri := range l.rungs {
		rg := &l.rungs[ri]
		mark := func(layer uint8, id int, t0 time.Time) {
			t1 := time.Now()
			tr.add([]span{{id: int64(id), layer: layer, start: tr.stamp(t0), end: tr.stamp(t1)}})
		}
		if calls[rg.layerContains] == 0 {
			for i := 0; i < probeReads; i++ {
				t0 := time.Now()
				ok, err := rg.contains(probeRead(keys, i))
				if err != nil {
					return t, fmt.Errorf("ladder probe %s: %w", rg.name, err)
				}
				mark(rg.layerContains, i, t0)
				t.add(checked(ok, nil))
			}
		}
		if calls[rg.layerBatch] == 0 {
			for i := 0; i < probeBatches; i++ {
				t0 := time.Now()
				if err := rg.batch(probeBatch(keys, i), res); err != nil {
					return t, fmt.Errorf("ladder probe %s: %w", rg.name, err)
				}
				mark(rg.layerBatch, i, t0)
				for _, m := range res {
					t.add(checked(m, nil))
				}
			}
		}
		if rg.write != nil && calls[rg.layerWrite] == 0 {
			for i := 0; i < probeWrites; i++ {
				t0 := time.Now()
				changed, err := rg.write(probeKey(keys), i%2 == 0)
				if err != nil {
					return t, fmt.Errorf("ladder probe %s: %w", rg.name, err)
				}
				mark(rg.layerWrite, i, t0)
				t.add(checked(changed, nil))
			}
		}
	}
	return t, nil
}

// probesPerQuery is the core's mean probe count over the stream's first
// reads, from the query's own probe capture.
func (l *ladder) probesPerQuery(s *stream, reads int) (float64, error) {
	var sc core.QueryScratch
	src := querySource()
	probes, n := 0, 0
	var r request
	for j := 0; n < reads; j++ {
		s.at(j, &r)
		keys := r.keys
		if keys == nil {
			keys = []uint64{r.key}
		}
		for _, k := range keys {
			sc.StartCapture()
			if _, err := l.core.ContainsScratch(k, src, &sc); err != nil {
				return 0, err
			}
			for _, cell := range sc.StopCapture() {
				if cell >= 0 {
					probes++
				}
			}
			n++
		}
	}
	return float64(probes) / float64(n), nil
}
