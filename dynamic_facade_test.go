package lcds

import (
	"sync"
	"testing"

	"repro/internal/rng"
)

func TestDynamicDictBasic(t *testing.T) {
	keys := testKeys(500, 20)
	d, err := NewDynamic(keys[:400], 0, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 400 {
		t.Errorf("Len = %d", d.Len())
	}
	for _, k := range keys[:400] {
		ok, err := d.Contains(k)
		if err != nil || !ok {
			t.Fatalf("missing initial key %d (err %v)", k, err)
		}
	}
	for _, k := range keys[400:] {
		if changed, err := d.Insert(k); err != nil || !changed {
			t.Fatalf("Insert(%d): changed=%v err=%v", k, changed, err)
		}
	}
	for _, k := range keys[:200] {
		if changed, err := d.Delete(k); err != nil || !changed {
			t.Fatalf("Delete(%d): changed=%v err=%v", k, changed, err)
		}
	}
	if d.Len() != 300 { // 400 initial + 100 inserted − 200 deleted
		t.Errorf("Len = %d after churn, want 300", d.Len())
	}
	for _, k := range keys[:200] {
		if ok, _ := d.Contains(k); ok {
			t.Fatalf("deleted key %d still present", k)
		}
	}
	if d.Rebuilds() < 1 {
		t.Errorf("Rebuilds = %d", d.Rebuilds())
	}
}

// TestDynamicBatchUpdates checks InsertBatch/DeleteBatch at one shard
// and at four: changed counts must match what sequential
// Insert/Delete would report (duplicates within a batch count once), and the
// resulting membership must agree with Contains.
func TestDynamicBatchUpdates(t *testing.T) {
	for _, shards := range []int{1, 4} {
		keys := testKeys(900, 24)
		opts := []Option{WithSeed(25)}
		if shards > 1 {
			opts = append(opts, WithShards(shards))
		}
		d, err := NewDynamic(keys[:300], 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// 300 fresh keys, 100 already present, plus 50 in-batch duplicates.
		batch := append(append([]uint64{}, keys[300:600]...), keys[:100]...)
		batch = append(batch, keys[300:350]...)
		changed, err := d.InsertBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if changed != 300 {
			t.Errorf("shards=%d: InsertBatch changed %d, want 300", shards, changed)
		}
		if d.Len() != 600 {
			t.Errorf("shards=%d: Len = %d after batch insert, want 600", shards, d.Len())
		}
		// Delete 200 members, 100 non-members, 50 in-batch duplicates.
		del := append(append([]uint64{}, keys[100:300]...), keys[600:700]...)
		del = append(del, keys[100:150]...)
		changed, err = d.DeleteBatch(del)
		if err != nil {
			t.Fatal(err)
		}
		if changed != 200 {
			t.Errorf("shards=%d: DeleteBatch changed %d, want 200", shards, changed)
		}
		if d.Len() != 400 {
			t.Errorf("shards=%d: Len = %d after batch delete, want 400", shards, d.Len())
		}
		out := make([]bool, len(keys))
		if err := d.ContainsBatch(keys, out); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			want := (i < 100) || (i >= 300 && i < 600)
			if out[i] != want {
				t.Fatalf("shards=%d: Contains(%d) = %v, want %v", shards, k, out[i], want)
			}
		}
	}
}

func TestDynamicDictOptionValidation(t *testing.T) {
	if _, err := NewDynamic(nil, 0, WithSpace(1)); err == nil {
		t.Error("bad option accepted")
	}
	if _, err := NewDynamic(nil, 3); err == nil {
		t.Error("bufferFrac > 1 accepted")
	}
}

func TestDynamicDictConcurrent(t *testing.T) {
	keys := testKeys(2000, 22)
	d, err := NewDynamic(keys[:1000], 0.25, WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	// Readers on the stable half, writers churning the volatile half.
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g))
			for i := 0; i < 2000; i++ {
				k := keys[r.Intn(500)] // never touched by writers
				ok, err := d.Contains(k)
				if err != nil {
					errc <- err
					return
				}
				if !ok {
					errc <- err
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(100 + g))
			for i := 0; i < 500; i++ {
				k := keys[1000+r.Intn(1000)]
				var err error
				if r.Intn(2) == 0 {
					_, err = d.Insert(k)
				} else {
					_, err = d.Delete(k)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent dynamic op failed: %v", err)
	}
}
