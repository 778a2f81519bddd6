package lcds

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/lincheck"
)

// Race tests for the public facade: run with `go test -race`. The static
// Dict shares one sharded query source across all callers; the dynamic
// dictionary additionally publishes epoch snapshots that readers traverse
// while writers mutate and rebuild. The heavy variants shrink under
// `go test -short`.

// TestConcurrentStaticContains hammers Dict.Contains from many goroutines.
// The static dictionary is immutable after construction, so the only shared
// mutable state on this path is the query source's shard cells.
func TestConcurrentStaticContains(t *testing.T) {
	goroutines, ops := 8, 20000
	if testing.Short() {
		goroutines, ops = 4, 2000
	}
	keys := testKeys(4096, 51)
	members := make(map[uint64]bool, 2048)
	for _, k := range keys[:2048] {
		members[k] = true
	}
	d, err := New(keys[:2048], WithSeed(52))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := keys[(g*ops+i)%len(keys)]
				if got := d.Contains(k); got != members[k] {
					t.Errorf("Contains(%d) = %v, want %v", k, got, members[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentBatchContains hammers the batch query paths: many goroutines
// call ContainsBatch on one static Dict (pooled scratch reuse under the race
// detector) while the dynamic variant below also sees rebuilds in flight.
func TestConcurrentBatchContains(t *testing.T) {
	goroutines, rounds := 8, 40
	if testing.Short() {
		goroutines, rounds = 4, 8
	}
	keys := testKeys(4096, 71)
	d, err := New(keys[:2048], WithSeed(72))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]bool, len(keys))
			for i := 0; i < rounds; i++ {
				if err := d.ContainsBatch(keys, out); err != nil {
					t.Error(err)
					return
				}
				for j := range keys {
					if want := j < 2048; out[j] != want {
						t.Errorf("goroutine %d: batch[%d] = %v, want %v", g, j, out[j], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentDynamicBatch runs ContainsBatch readers against a churning
// DynamicDict so the epoch-snapshot batch path races with writers and
// background rebuilds.
func TestConcurrentDynamicBatch(t *testing.T) {
	readers, rounds, writerOps := 4, 30, 1500
	if testing.Short() {
		readers, rounds, writerOps = 2, 6, 300
	}
	keys := testKeys(3000, 81)
	stable, volatile := keys[:1500], keys[1500:]
	d, err := NewDynamic(stable, 0.5, WithSeed(82))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]bool, len(stable))
			for i := 0; i < rounds; i++ {
				if err := d.ContainsBatch(stable, out); err != nil {
					t.Error(err)
					return
				}
				for j, ok := range out {
					if !ok {
						t.Errorf("stable key %d reported absent by batch", stable[j])
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerOps; i++ {
			k := volatile[i%len(volatile)]
			var err error
			if i%2 == 0 {
				_, err = d.Insert(k)
			} else {
				_, err = d.Delete(k)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestConcurrentDynamicHammer mixes Contains, ContainsBatch, Insert, Delete
// and Len on one DynamicDict, at one shard and at four. Stable keys are
// never touched by writers, so readers can check exact answers; volatile
// keys churn to keep rebuilds in flight, and readers query them too. Every
// operation but Len is recorded, and the history must be linearizable.
func TestConcurrentDynamicHammer(t *testing.T) {
	readers, writers, readerOps, writerOps := 6, 2, 8000, 2500
	if testing.Short() {
		readers, writers, readerOps, writerOps = 2, 1, 1000, 300
	}
	keys := testKeys(3000, 61)
	stable, volatile := keys[:1500], keys[1500:]
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d, err := NewDynamic(stable, 0.5, WithSeed(62), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			clk := lincheck.NewClock()
			recs := make([]*lincheck.Recorder, readers+writers)
			for i := range recs {
				recs[i] = lincheck.NewRecorder(d, clk)
			}
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(rec *lincheck.Recorder, g int) {
					defer wg.Done()
					batch := make([]uint64, 16)
					out := make([]bool, len(batch))
					for i := 0; i < readerOps; i++ {
						k := stable[(g*readerOps+i)%len(stable)]
						ok, err := rec.Contains(k)
						if err != nil {
							t.Error(err)
							return
						}
						if !ok {
							t.Errorf("stable key %d reported absent", k)
							return
						}
						if _, err := rec.Contains(volatile[(g*7919+i*31)%len(volatile)]); err != nil {
							t.Error(err)
							return
						}
						if i%64 == 0 {
							for j := range batch {
								batch[j] = volatile[(g*104729+i*17+j*97)%len(volatile)]
							}
							if err := rec.ContainsBatch(batch, out); err != nil {
								t.Error(err)
								return
							}
						}
						if n := d.Len(); n < len(stable) {
							t.Errorf("Len() = %d below stable floor %d", n, len(stable))
							return
						}
					}
				}(recs[g], g)
			}
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(rec *lincheck.Recorder, g int) {
					defer wg.Done()
					for i := 0; i < writerOps; i++ {
						if _, err := rec.Write(volatile[(g*writerOps+i)%len(volatile)], i%2 == 1); err != nil {
							t.Error(err)
							return
						}
					}
				}(recs[readers+g], g)
			}
			wg.Wait()
			n, err := lincheck.CheckRecorded(recs, lincheck.Members(stable))
			if err != nil {
				t.Fatal(err)
			}
			d.Quiesce()
			t.Logf("history of %d operations over %d rebuilds is linearizable", n, d.Rebuilds()-shards)
			for _, k := range stable {
				ok, err := d.Contains(k)
				if err != nil || !ok {
					t.Fatalf("stable key %d missing after hammer (err %v)", k, err)
				}
			}
		})
	}
}
