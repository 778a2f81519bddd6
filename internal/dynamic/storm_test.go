package dynamic

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lincheck"
	"repro/internal/rng"
)

// TestContainsDuringWriteStorm is the lock-free write path's headline
// property: GOMAXPROCS writer goroutines churn a volatile key range hard
// enough to force at least three rebuild epochs while reader goroutines
// continuously assert membership of a stable core set. A stable key going
// missing — during a claim race, a seal, a delta replay or an epoch swap —
// fails the test. The readers also query the churned range, and the
// history of those reads and every write must be linearizable. Run it
// under -race to also catch data races on the slot words and epoch pointer.
func TestContainsDuringWriteStorm(t *testing.T) {
	writers := runtime.GOMAXPROCS(0)
	if writers < 2 {
		writers = 2
	}
	const readers = 2
	stableN, volatileN := 1500, 2500
	if testing.Short() {
		stableN, volatileN = 400, 800
	}
	keys := distinctKeys(rng.New(40), stableN+volatileN)
	stable, volatile := keys[:stableN], keys[stableN:]
	d := mustNew(t, stable, 41)
	src := rng.NewSharded(42, 0)
	startEpoch := d.Stats().Epoch
	logs := newRecorders(d, src, writers+readers)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(400 + g))
			for !stop.Load() {
				k := volatile[r.Intn(len(volatile))]
				if _, err := logs[g].Write(k, r.Intn(2) == 0); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	var checks atomic.Int64
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(500 + g))
			for !stop.Load() {
				k := stable[r.Intn(len(stable))]
				ok, err := d.Contains(k, src)
				if err != nil {
					errc <- err
					return
				}
				if !ok {
					errc <- fmt.Errorf("stable key %d reported absent mid-storm", k)
					return
				}
				if _, err := logs[writers+g].Contains(volatile[r.Intn(len(volatile))]); err != nil {
					errc <- err
					return
				}
				checks.Add(1)
			}
		}(g)
	}

	deadline := time.Now().Add(30 * time.Second)
	for d.Stats().Epoch < startEpoch+3 && time.Now().Before(deadline) && len(errc) == 0 {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	d.Quiesce()
	st := d.Stats()
	if st.Epoch < startEpoch+3 {
		t.Fatalf("storm drove only %d rebuild epochs, want ≥ 3", st.Epoch-startEpoch)
	}
	if checks.Load() == 0 {
		t.Fatal("no reader check completed during the storm")
	}
	// Post-quiesce the stable core must be fully intact.
	qr := rng.New(43)
	for _, k := range stable {
		ok, err := d.Contains(k, qr)
		if err != nil || !ok {
			t.Fatalf("stable key %d missing after storm (err %v)", k, err)
		}
	}
	t.Logf("%d writers, %d reader checks, %d epochs, %d CAS retries",
		writers, checks.Load(), st.Epoch-startEpoch, st.WriteCASRetries)
	if _, err := lincheck.CheckRecorded(logs, lincheck.Members(nil)); err != nil {
		t.Fatal(err)
	}
}

// TestStatsDuringWriteStorm calls Stats and Len continuously while writers
// churn, asserting the counters stay monotone and self-consistent. Every
// field Stats reads is an atomic or striped counter, so this must be clean
// under -race with zero coordination against the writers.
func TestStatsDuringWriteStorm(t *testing.T) {
	writers, ops := 4, 4000
	if testing.Short() {
		writers, ops = 2, 800
	}
	keys := distinctKeys(rng.New(50), 2000)
	d := mustNew(t, keys[:1000], 51)
	volatile := keys[1000:]

	var wg sync.WaitGroup
	errc := make(chan error, writers)
	var done atomic.Bool
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(600 + g))
			for i := 0; i < ops; i++ {
				k := volatile[r.Intn(len(volatile))]
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
	go func() {
		wg.Wait()
		done.Store(true)
	}()
	var prev Stats
	for !done.Load() {
		st := d.Stats()
		if st.WriteProbes < prev.WriteProbes {
			t.Errorf("WriteProbes went backwards: %d -> %d", prev.WriteProbes, st.WriteProbes)
			break
		}
		if st.Updates < prev.Updates {
			t.Errorf("Updates went backwards: %d -> %d", prev.Updates, st.Updates)
			break
		}
		if st.Epoch < prev.Epoch {
			t.Errorf("Epoch went backwards: %d -> %d", prev.Epoch, st.Epoch)
			break
		}
		if st.Len < 0 || st.Buffered < 0 || st.Buffered > st.BufferSlots {
			t.Errorf("inconsistent mid-storm stats: %+v", st)
			break
		}
		prev = st
		// Overlap the next snapshot with writer progress.
		runtime.Gosched()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	d.Quiesce()
	st := d.Stats()
	if st.Updates == 0 || st.WriteProbes == 0 {
		t.Fatalf("storm recorded no write work: %+v", st)
	}
}

// TestConcurrentWritersChangedCounts pins the linearization invariant of the
// changed-report: with several writers hammering the same small key set,
// every op that reports "changed" is a real membership transition, so for
// each key (initial membership) + (sum of +1 per changed insert, −1 per
// changed delete) must equal its final membership — and never leave {0, 1}
// in aggregate. Duplicate claims racing on one key would break this. The
// recorded history of every write must also be linearizable.
func TestConcurrentWritersChangedCounts(t *testing.T) {
	const contended = 64
	writers, ops := 4, 3000
	if testing.Short() {
		writers, ops = 2, 600
	}
	keys := distinctKeys(rng.New(60), 512+contended)
	filler, hot := keys[:512], keys[512:]
	// Half the contended keys start as members (via the initial build), so
	// both the tombstone-first and insert-first claim paths are exercised.
	initial := append(append([]uint64{}, filler...), hot[:contended/2]...)
	d := mustNew(t, initial, 61)
	logs := newRecorders(d, nil, writers)

	nets := make([][]int, writers) // nets[g][i]: writer g's net changed delta on hot[i]
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for g := 0; g < writers; g++ {
		nets[g] = make([]int, contended)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(700 + g))
			for i := 0; i < ops; i++ {
				ki := r.Intn(contended)
				del := r.Intn(2) == 0
				changed, err := logs[g].Write(hot[ki], del)
				if err != nil {
					errc <- err
					return
				}
				switch {
				case changed && del:
					nets[g][ki]--
				case changed:
					nets[g][ki]++
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	d.Quiesce()

	qr := rng.New(62)
	for i := 0; i < contended; i++ {
		membership := 0
		if i < contended/2 {
			membership = 1 // initial member
		}
		for g := 0; g < writers; g++ {
			membership += nets[g][i]
		}
		if membership != 0 && membership != 1 {
			t.Fatalf("key %d: changed-count ledger says membership %d — some claim double-counted", hot[i], membership)
		}
		ok, err := d.Contains(hot[i], qr)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (membership == 1) {
			t.Fatalf("key %d: ledger membership %d but Contains = %v", hot[i], membership, ok)
		}
	}
	// The filler set must be untouched by the contention.
	for _, k := range filler {
		ok, err := d.Contains(k, qr)
		if err != nil || !ok {
			t.Fatalf("filler key %d lost (err %v)", k, err)
		}
	}
	if _, err := lincheck.CheckRecorded(logs, lincheck.Members(initial)); err != nil {
		t.Fatal(err)
	}
}
