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

// Churn on one key reuses that key's one buffer slot, so its probe chain
// and its write cost stay flat however often it flips within an epoch.
const (
	churnReadSlack   = 2 // read probes allowed beyond MaxReadProbes
	churnProbesPerOp = 4 // parameter probe, chain, publishing write
)

// TestChurnBoundsChains flips a snapshot key and a non-snapshot key out of
// and back into their snapshot membership k times in one epoch. The churned
// key's Contains must stay within MaxReadProbes plus a constant, and every
// cycle's writes within a constant number of probes, for every k.
func TestChurnBoundsChains(t *testing.T) {
	keys := distinctKeys(rng.New(70), 4097)
	base := keys[:4096]
	for _, k := range []int{1, 100, 3000} {
		for _, tc := range []struct {
			name   string
			x      uint64
			inBase bool
		}{
			{"snapshot", base[7], true},
			{"fresh", keys[4096], false},
		} {
			t.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(t *testing.T) {
				// ε = 1 puts the rebuild threshold (4096 claimed slots)
				// above every k, so a chain that grows per cycle is not
				// reset by a rebuild.
				d, err := New(base, Params{Epsilon: 1, SyncRebuild: true}, 71)
				if err != nil {
					t.Fatal(err)
				}
				prev, worst := d.Stats().WriteProbes, uint64(0)
				for i := 0; i < k; i++ {
					// A snapshot key is deleted then re-inserted; a fresh
					// key inserted then deleted.
					for _, del := range []bool{tc.inBase, !tc.inBase} {
						var changed bool
						var err error
						if del {
							changed, err = d.Delete(tc.x)
						} else {
							changed, err = d.Insert(tc.x)
						}
						if err != nil {
							t.Fatal(err)
						}
						if !changed {
							t.Fatalf("cycle %d: write (del=%v) changed nothing", i, del)
						}
					}
					cur := d.Stats().WriteProbes
					worst, prev = max(worst, cur-prev), cur
				}
				if worst > 2*churnProbesPerOp {
					t.Errorf("a cycle cost %d write probes, want ≤ %d", worst, 2*churnProbesPerOp)
				}
				st := d.Stats()
				if st.Epoch != 1 {
					t.Fatalf("churn ran across %d epochs; the bound is per epoch", st.Epoch)
				}
				before := st.ReadProbes
				ok, err := d.Contains(tc.x, rng.New(72))
				if err != nil {
					t.Fatal(err)
				}
				if ok != tc.inBase {
					t.Fatalf("Contains = %v after %d cycles, want %v", ok, k, tc.inBase)
				}
				probes := d.Stats().ReadProbes - before
				if limit := uint64(d.MaxReadProbes() + churnReadSlack); probes > limit {
					t.Errorf("Contains of the churned key took %d probes, want ≤ %d", probes, limit)
				}
				t.Logf("k=%d: %d write probes, %d read probes", k, st.WriteProbes, probes)
			})
		}
	}
}

// TestConcurrentChurnOneKey runs GOMAXPROCS writers flipping one key while
// a reader queries it. The changed-count ledger must settle on the final
// membership, the recorded history must be linearizable, and the buffer
// must hold at most one slot word for the key: every writer met at that
// slot. Run under -race.
func TestConcurrentChurnOneKey(t *testing.T) {
	ops := 4000
	if testing.Short() {
		ops = 800
	}
	writers := max(runtime.GOMAXPROCS(0), 2)
	keys := distinctKeys(rng.New(80), 513)
	base := keys[:512]
	for _, tc := range []struct {
		name   string
		x      uint64
		inBase bool
	}{
		{"snapshot", base[3], true},
		{"fresh", keys[512], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := mustNew(t, base, 81)
			logs := newOpLogs(d, lincheck.NewClock(), writers+1)
			nets := make([]int, writers)
			var wg sync.WaitGroup
			var done atomic.Bool
			errc := make(chan error, writers+1)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rng.New(uint64(800 + g))
					for i := 0; i < ops; i++ {
						del := r.Intn(2) == 0
						changed, err := logs[g].write(tc.x, del)
						if err != nil {
							errc <- err
							return
						}
						switch {
						case changed && del:
							nets[g]--
						case changed:
							nets[g]++
						}
					}
				}(g)
			}
			reader := make(chan struct{})
			go func() {
				defer close(reader)
				src := rng.NewSharded(82, 0)
				for !done.Load() {
					if _, err := logs[writers].contains(tc.x, src); err != nil {
						errc <- err
						return
					}
				}
			}()
			wg.Wait()
			done.Store(true)
			<-reader
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			d.Quiesce()

			membership := 0
			if tc.inBase {
				membership = 1
			}
			for _, n := range nets {
				membership += n
			}
			if membership != 0 && membership != 1 {
				t.Fatalf("changed-count ledger says membership %d", membership)
			}
			ok, err := d.Contains(tc.x, rng.New(83))
			if err != nil {
				t.Fatal(err)
			}
			if ok != (membership == 1) {
				t.Fatalf("ledger membership %d but Contains = %v", membership, ok)
			}
			e := d.cur.Load()
			if got := d.Stats().Epoch; got != 1 {
				t.Fatalf("one key's churn triggered a rebuild (epoch %d)", got)
			}
			held := 0
			for i := range e.buf.slots {
				if tag, k := unpackSlot(e.buf.slots[i].Load()); tag != slotEmpty && k == tc.x {
					held++
				}
			}
			if held > 1 {
				t.Fatalf("key holds %d slot words, want ≤ 1", held)
			}
			checkHistory(t, logs, func(k uint64) bool { return tc.inBase })
		})
	}
}

// TestContainsBatchDuringWriteStorm answers batches over a churned key
// range while GOMAXPROCS writers drive background rebuilds, so batches pin
// epochs that are being sealed, rebuilt and replaced. Each batch answer is
// recorded as a Contains spanning its batch call, and the history of
// batches and writes must be linearizable. Run under -race.
func TestContainsBatchDuringWriteStorm(t *testing.T) {
	writers := max(runtime.GOMAXPROCS(0), 2)
	stableN, volatileN := 2048, 1024
	if testing.Short() {
		stableN, volatileN = 512, 512
	}
	keys := distinctKeys(rng.New(90), stableN+volatileN)
	stable, volatile := keys[:stableN], keys[stableN:]
	d, err := New(stable, Params{Epsilon: 0.1}, 91)
	if err != nil {
		t.Fatal(err)
	}
	logs := newOpLogs(d, lincheck.NewClock(), writers+1)
	startEpoch := d.Stats().Epoch

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, writers+1)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(900 + g))
			for !stop.Load() {
				if _, err := logs[g].write(volatile[r.Intn(len(volatile))], r.Intn(2) == 0); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	var batches, midRebuild atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rng.New(92)
		src := rng.NewSharded(93, 0)
		batch := make([]uint64, 64)
		out := make([]bool, len(batch))
		for !stop.Load() {
			for i := range batch {
				batch[i] = volatile[r.Intn(len(volatile))]
			}
			rebuilding := d.Rebuilding()
			if err := logs[writers].containsBatch(batch, out, src); err != nil {
				errc <- err
				return
			}
			batches.Add(1)
			if rebuilding {
				midRebuild.Add(1)
			}
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for (d.Stats().Epoch < startEpoch+3 || midRebuild.Load() == 0) && time.Now().Before(deadline) && len(errc) == 0 {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	d.Quiesce()
	if st := d.Stats(); st.Epoch < startEpoch+3 {
		t.Fatalf("storm drove only %d rebuild epochs, want ≥ 3", st.Epoch-startEpoch)
	}
	if midRebuild.Load() == 0 {
		t.Fatal("no batch started while a rebuild was in flight")
	}
	t.Logf("%d batches, %d started mid-rebuild", batches.Load(), midRebuild.Load())
	checkHistory(t, logs, func(uint64) bool { return false })
}
