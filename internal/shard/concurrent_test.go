package shard

import (
	"sync"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/lincheck"
	"repro/internal/rng"
)

// sourced is a lincheck.Set view of a DynamicDict whose reads draw from r
// and whose batches fan out across shards (ContainsBatchParallel).
type sourced struct {
	*DynamicDict
	r rng.Source
}

func (s sourced) Contains(k uint64) (bool, error) { return s.DynamicDict.Contains(k, s.r) }

func (s sourced) ContainsBatch(keys []uint64, out []bool) error {
	return s.DynamicDict.ContainsBatchParallel(keys, out, s.r)
}

// TestConcurrentShardedReadsAndWrites drives an update storm against a
// sharded dynamic dictionary while reader goroutines issue single and
// batched queries over the keys the writers churn, and checks the recorded
// history for linearizability. Run under -race in CI: it exercises the
// per-shard epoch publication, the batch fan-out goroutines and the shared
// rng.Sharded source at once.
func TestConcurrentShardedReadsAndWrites(t *testing.T) {
	keys := testKeys(2560, 201)
	stable, volatile := keys[:2048], keys[2048:]
	// ε = 0.1 puts every shard's rebuild threshold well inside the churn.
	d, err := NewDynamic(stable, 4, dynamic.Params{Epsilon: 0.1}, 203, nil)
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers  = 4
		readers  = 4
		batchers = 2
		rounds   = 400
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+batchers)
	clk := lincheck.NewClock()
	var recs []*lincheck.Recorder
	record := func(r rng.Source) *lincheck.Recorder {
		rec := lincheck.NewRecorder(sourced{d, r}, clk)
		recs = append(recs, rec)
		return rec
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(rec *lincheck.Recorder, r *rng.RNG) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := rec.Write(volatile[r.Intn(len(volatile))], r.Intn(3) == 0); err != nil {
					errs <- err
					return
				}
			}
		}(record(nil), rng.New(uint64(300+w)))
	}

	for g := 0; g < readers; g++ {
		r := rng.New(uint64(400 + g))
		wg.Add(1)
		go func(rec *lincheck.Recorder) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Writers never touch the stable keys, so their membership
				// must hold throughout.
				k := stable[r.Intn(len(stable))]
				ok, err := rec.Contains(k)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					t.Errorf("stable key %d lost mid-storm", k)
					return
				}
				if _, err := rec.Contains(volatile[r.Intn(len(volatile))]); err != nil {
					errs <- err
					return
				}
				_ = d.Len()
			}
		}(record(r))
	}

	for b := 0; b < batchers; b++ {
		wg.Add(1)
		go func(rec *lincheck.Recorder, b int) {
			defer wg.Done()
			r := rng.New(uint64(600 + b))
			batch := make([]uint64, 256)
			out := make([]bool, len(batch))
			for i := 0; i < rounds/4; i++ {
				copy(batch, stable[(i*131)%(len(stable)-192):][:192])
				for j := 192; j < len(batch); j++ {
					batch[j] = volatile[r.Intn(len(volatile))]
				}
				if err := rec.ContainsBatch(batch, out); err != nil {
					errs <- err
					return
				}
				for j, ok := range out[:192] {
					if !ok {
						t.Errorf("batch lost stable key %d", batch[j])
						return
					}
				}
			}
		}(record(rng.NewSharded(uint64(500+b), 0)), b)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n, err := lincheck.CheckRecorded(recs, lincheck.Members(stable))
	if err != nil {
		t.Fatal(err)
	}
	d.Quiesce()
	t.Logf("history of %d operations over %d rebuilds is linearizable", n, d.Rebuilds()-d.Shards())
	for _, k := range stable {
		if ok, err := d.Contains(k, rng.New(1)); err != nil || !ok {
			t.Fatalf("stable key %d missing after storm (err=%v)", k, err)
		}
	}
}

// TestConcurrentStaticBatch hammers the static composite's parallel batch
// path from many goroutines sharing one sharded source; the static Dict is
// immutable after New, so only the scratch pool and source are shared.
func TestConcurrentStaticBatch(t *testing.T) {
	keys := testKeys(2048, 211)
	d, err := NewNamed(keys, 8, "lcds", 213)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSharded(215, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]bool, 512)
			for i := 0; i < 50; i++ {
				batch := keys[((g*53+i)*97)%(len(keys)-512):][:512]
				if err := d.ContainsBatchParallel(batch, out, src); err != nil {
					t.Error(err)
					return
				}
				for j, ok := range out {
					if !ok {
						t.Errorf("member %d answered false", batch[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentDynamicBatchUpdates drives InsertBatch/DeleteBatch from
// several goroutines at once — each batch fans out across shards on its own
// worker goroutines, so concurrent batches put multiple claiming writers on
// every shard's buffer — while a reader batches over seed and churned keys.
// Each updater owns its churn slice, so the outcome of every key of its
// batches is known from sequential semantics (the changed counts check
// it); each is recorded as a write spanning its batch call, each reader
// answer as a Contains spanning its batch, and the history must be
// linearizable. Run under -race.
func TestConcurrentDynamicBatchUpdates(t *testing.T) {
	keys := testKeys(3072, 221)
	seed, churn := keys[:1024], keys[1024:]
	d, err := NewDynamic(seed, 4, dynamic.Params{}, 223, nil)
	if err != nil {
		t.Fatal(err)
	}

	const updaters = 3
	clk := lincheck.NewClock()
	var wg sync.WaitGroup
	errs := make(chan error, updaters+1)
	writes := make([][]lincheck.Op, updaters)
	// batch runs one batch update of keys and records key i's write with
	// the result changed(i).
	batch := func(u int, keys []uint64, del bool, changed func(i int) bool) (int, error) {
		kind, update := lincheck.Insert, d.InsertBatch
		if del {
			kind, update = lincheck.Delete, d.DeleteBatch
		}
		call := clk.Now()
		n, err := update(keys)
		ret := clk.Now()
		for i, k := range keys {
			writes[u] = append(writes[u], lincheck.Op{Kind: kind, Key: k, Result: changed(i), Call: call, Return: ret})
		}
		return n, err
	}
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			// Each updater owns a disjoint churn slice: batch-insert it,
			// batch-delete its second half, repeat. After the first round
			// only the second half is absent when the insert comes.
			mine := churn[u*640 : (u+1)*640]
			half := len(mine) / 2
			for round := 0; round < 4; round++ {
				changed, err := batch(u, mine, false, func(i int) bool { return round == 0 || i >= half })
				if err != nil {
					errs <- err
					return
				}
				want := len(mine)
				if round > 0 {
					want = half
				}
				if changed != want {
					t.Errorf("updater %d round %d: InsertBatch changed %d, want %d", u, round, changed, want)
					return
				}
				changed, err = batch(u, mine[half:], true, func(int) bool { return true })
				if err != nil {
					errs <- err
					return
				}
				if changed != half {
					t.Errorf("updater %d round %d: DeleteBatch changed %d, want %d", u, round, changed, half)
					return
				}
			}
		}(u)
	}
	reader := lincheck.NewRecorder(sourced{d, rng.NewSharded(225, 0)}, clk)
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rng.New(226)
		batch := make([]uint64, 512)
		out := make([]bool, len(batch))
		for i := 0; i < 100; i++ {
			copy(batch, seed[(i*97)%(len(seed)-384):][:384])
			for j := 384; j < len(batch); j++ {
				batch[j] = churn[r.Intn(len(churn))]
			}
			if err := reader.ContainsBatch(batch, out); err != nil {
				errs <- err
				return
			}
			for j, ok := range out[:384] {
				if !ok {
					t.Errorf("seed key %d lost during batch churn", batch[j])
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	h := reader.Ops()
	for _, ops := range writes {
		h = append(h, ops...)
	}
	if err := lincheck.Check(h, lincheck.Members(seed)); err != nil {
		t.Fatal(err)
	}
	d.Quiesce()
	// Final state: every updater's first half present, second half absent.
	src := rng.New(227)
	for u := 0; u < updaters; u++ {
		mine := churn[u*640 : (u+1)*640]
		for i, k := range mine {
			ok, err := d.Contains(k, src)
			if err != nil {
				t.Fatal(err)
			}
			if want := i < len(mine)/2; ok != want {
				t.Fatalf("updater %d key %d: present=%v, want %v", u, k, ok, want)
			}
		}
	}
}
