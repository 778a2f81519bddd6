package lcds

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cellprobe"
	"repro/internal/rng"
)

// A dynamic dictionary with telemetry counts read probes into a per-step
// tally in its pooled scratch and flushes it once per Contains or
// ContainsBatch call. These tests hold that feed to a per-probe Recorder on
// the same tables: the same probes at the same steps, overflow clamp
// included, and no flush lost when many goroutines flush while the counters
// are scraped.

// telemetryTwinOps drives one dictionary of a twin set through the same
// deterministic write schedule: buffer inserts, then tombstones for
// snapshot keys. It quiesces after every write, so no write ever lands on a
// sealed buffer and the final epoch is a pure function of the seed.
func telemetryTwinOps(t *testing.T, d *DynamicDict, keys []uint64) {
	t.Helper()
	write := func(k uint64, del bool) {
		var err error
		if del {
			_, err = d.Delete(k)
		} else {
			_, err = d.Insert(k)
		}
		if err != nil {
			t.Fatal(err)
		}
		d.Quiesce()
	}
	for _, k := range keys[3000:3200] {
		write(k, false)
	}
	for _, k := range keys[:150] {
		write(k, true)
	}
}

// telemetryReadStream is the read stream of the equivalence test: stored
// keys, buffer inserts, tombstoned keys and never-inserted keys — 1000 of those, so misses on empty buckets, which stop
// after the histogram probes, are all but certain — shuffled by a fixed seed.
func telemetryReadStream(keys []uint64) []uint64 {
	var s []uint64
	s = append(s, keys[:600]...)      // tombstones and plain members
	s = append(s, keys[3000:3200]...) // buffer inserts
	s = append(s, keys[4000:5000]...) // misses
	r := rng.New(77)
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
	return s
}

// TestBatchTelemetryMatchesSequential answers one read stream three ways on
// dictionaries built from the same seed and driven through the same writes:
// ContainsBatch, sequential Contains, and traced sequential Contains
// (TraceEvery 1 with a Tracer routes every query through the trace
// scratch's tally). Probes, step masses and read-probe counts must be
// identical, across a small StepCap that sends static and buffer steps into
// the overflow slot, and a 4-way sharded dictionary. On the unsharded
// cases, Recorders on the sequential twin's base and buffer tables are the
// independent per-probe reference: their per-step totals, buffer steps
// offset by the static MaxProbes and clamped at StepCap, must equal the
// telemetry's step counts.
func TestBatchTelemetryMatchesSequential(t *testing.T) {
	keys := testKeys(5000, 41)
	cases := []struct {
		name    string
		stepCap int
		shards  int
	}{
		{name: "default"},
		{name: "stepcap4", stepCap: 4},
		{name: "stepcap14", stepCap: 14}, // buffer parameter probe in range, slot probes clamped
		{name: "shards4", shards: 4},
		{name: "shards4-stepcap4", shards: 4, stepCap: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(traced bool) *DynamicDict {
				cfg := TelemetryConfig{Sample: 1, StepCap: tc.stepCap}
				if traced {
					cfg.TraceEvery, cfg.Tracer = 1, &traceLog{}
				}
				opts := []Option{WithSeed(41), WithTelemetry(cfg)}
				if tc.shards > 0 {
					opts = append(opts, WithShards(tc.shards))
				}
				d, err := NewDynamic(keys[:3000], 0.25, opts...)
				if err != nil {
					t.Fatal(err)
				}
				telemetryTwinOps(t, d, keys)
				return d
			}
			batch, seq, traced := build(false), build(false), build(true)
			st := batch.Stats()
			for _, d := range []*DynamicDict{seq, traced} {
				if s := d.Stats(); s.Epochs != st.Epochs || s.Buffered != st.Buffered || s.Len != st.Len {
					t.Fatalf("twins diverged before reading: %+v vs %+v", s, st)
				}
			}
			if st.Buffered == 0 {
				t.Fatal("no buffer entries to read through")
			}
			var baseRec, bufRec *cellprobe.Recorder
			if tc.shards == 0 {
				base, buf := seq.shards.Shard(0).BaseTable(), seq.shards.Shard(0).BufferTable()
				baseRec, bufRec = cellprobe.NewRecorder(base.Size()), cellprobe.NewRecorder(buf.Size())
				base.Attach(baseRec)
				buf.Attach(bufRec)
				defer base.Detach()
				defer buf.Detach()
			}

			stream := telemetryReadStream(keys)
			want := make([]bool, len(stream))
			got := make([]bool, len(stream))
			for _, chunk := range []int{1, 7, 256, len(stream)} {
				for lo := 0; lo < len(stream); lo += chunk {
					hi := min(lo+chunk, len(stream))
					if err := batch.ContainsBatch(stream[lo:hi], got[lo:hi]); err != nil {
						t.Fatal(err)
					}
				}
				for i, x := range stream {
					ok, err := seq.Contains(x)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = ok
					ok, err = traced.Contains(x)
					if err != nil {
						t.Fatal(err)
					}
					if ok != want[i] {
						t.Fatalf("traced answer for key %d = %v, sequential %v", x, ok, want[i])
					}
					if got[i] != want[i] {
						t.Fatalf("chunk %d: batch answer for key %d = %v, sequential %v", chunk, x, got[i], want[i])
					}
				}
			}

			sb, ss, sr := batch.Telemetry().Snapshot(), seq.Telemetry().Snapshot(), traced.Telemetry().Snapshot()
			if sb.Queries != ss.Queries || sr.Queries != ss.Queries {
				t.Fatalf("queries: batch %d, sequential %d, traced %d", sb.Queries, ss.Queries, sr.Queries)
			}
			if ss.Probes == 0 || sb.Probes != ss.Probes || sr.Probes != ss.Probes {
				t.Fatalf("probes: batch %d, sequential %d, traced %d", sb.Probes, ss.Probes, sr.Probes)
			}
			requireSameStepMass(t, "batch", sb.StepMass, ss.StepMass)
			requireSameStepMass(t, "traced", sr.StepMass, ss.StepMass)
			if tc.stepCap > 0 && len(ss.StepMass) != tc.stepCap+1 {
				t.Fatalf("step masses %v never reached the overflow slot %d", ss.StepMass, tc.stepCap)
			}
			if rb, rs, rr := batch.Stats().ReadProbes, seq.Stats().ReadProbes, traced.Stats().ReadProbes; rs == 0 || rb != rs || rr != rs {
				t.Fatalf("read probes: batch %d, sequential %d, traced %d", rb, rs, rr)
			}
			if baseRec != nil {
				last := seq.Telemetry().TallyLen() - 1 // the StepCap overflow slot
				off := seq.shards.Shard(0).Base().MaxProbes()
				steps := make([]uint64, last+1)
				for step, row := range baseRec.PerStep {
					for _, c := range row {
						steps[min(step, last)] += c
					}
				}
				for step, row := range bufRec.PerStep {
					for _, c := range row {
						steps[min(step+off, last)] += c
					}
				}
				var total uint64
				for _, c := range steps {
					total += c
				}
				for steps[len(steps)-1] == 0 { // Snapshot trims trailing empty steps
					steps = steps[:len(steps)-1]
				}
				mass := make([]float64, len(steps))
				for i, c := range steps {
					mass[i] = float64(c) / float64(ss.Queries)
				}
				if total != ss.Probes {
					t.Fatalf("recorders saw %d probes, telemetry counted %d", total, ss.Probes)
				}
				requireSameStepMass(t, "recorder", mass, ss.StepMass)
			}
		})
	}
}

func requireSameStepMass(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s step masses %v, sequential %v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s step %d mass %v, sequential %v", label, i, got[i], want[i])
		}
	}
}

// TestBatchTelemetryConcurrentFlushes runs GOMAXPROCS goroutines of
// instrumented batches and single queries while another goroutine scrapes
// Snapshot. With the buffer state fixed, a batch's probe count is a constant,
// so when the readers finish the probe total must be exact — a flush lost to
// a race or to a pooled tally left unflushed would show as a shortfall — and
// no scrape may ever see the total fall.
func TestBatchTelemetryConcurrentFlushes(t *testing.T) {
	keys := testKeys(4000, 43)
	d, err := NewDynamic(keys[:3000], 0.25, WithSeed(43), WithTelemetry(TelemetryConfig{Sample: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[3000:3300] {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:100] {
		if _, err := d.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	d.Quiesce()
	tel := d.Telemetry()
	batch := append(append([]uint64(nil), keys[:400]...), keys[3000:3400]...)
	out := make([]bool, len(batch))

	// One batch measures the per-batch probe count.
	before, readBefore := tel.Snapshot().Probes, d.Stats().ReadProbes
	if err := d.ContainsBatch(batch, out); err != nil {
		t.Fatal(err)
	}
	perBatch, readPerBatch := tel.Snapshot().Probes-before, d.Stats().ReadProbes-readBefore
	if perBatch == 0 {
		t.Fatal("a batch recorded no probes")
	}
	base, readBase := tel.Snapshot().Probes, d.Stats().ReadProbes

	workers := max(runtime.GOMAXPROCS(0), 2)
	const rounds = 40
	done := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		var last uint64
		for {
			select {
			case <-done:
				scraped <- nil
				return
			default:
			}
			p := tel.Snapshot().Probes
			if p < last {
				scraped <- fmt.Errorf("probe total fell from %d to %d between scrapes", last, p)
				return
			}
			last = p
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]bool, len(batch))
			for r := 0; r < rounds; r++ {
				if err := d.ContainsBatch(batch, out); err != nil {
					t.Error(err)
					return
				}
				// The same keys once more, one Contains each: a batch's
				// worth of single-query flushes.
				for _, x := range batch {
					if _, err := d.Contains(x); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	n := uint64(workers * rounds * 2)
	if got, want := tel.Snapshot().Probes, base+n*perBatch; got != want {
		t.Fatalf("probe total %d after %d batch-equivalents of %d probes, want %d (lost %d)", got, n, perBatch, want, int64(want)-int64(got))
	}
	if got, want := d.Stats().ReadProbes, readBase+n*readPerBatch; got != want {
		t.Fatalf("read probes %d, want %d", got, want)
	}
}
