package dynamic

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// pinnedHot is a stub classifier that pins a fixed hot set from the first
// epoch on — deterministic promotion for tests that need to know exactly
// which keys are absorbed.
type pinnedHot struct{ keys []uint64 }

func (p pinnedHot) ObserveClaim(uint64, uint64, uint64) {}
func (p pinnedHot) Pressure() bool                      { return false }
func (p pinnedHot) Reclassify([]uint64, func(uint64) uint64) []uint64 {
	return p.keys
}

func mustNewAbsorbed(t testing.TB, keys []uint64, seed uint64, p Params) *Dict {
	t.Helper()
	d, err := New(keys, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAbsorbedFlipsWithinPhase pins one hot key and drives
// insert→delete→insert flips of it within a single phase, asserting the
// overlay answers every Contains linearizably mid-phase, and that the
// phase-seal reconciliation (forced rebuilds) lands the last write — in
// both final polarities, across consecutive phases.
func TestAbsorbedFlipsWithinPhase(t *testing.T) {
	keys := distinctKeys(rng.New(80), 256)
	initial, filler := keys[:128], keys[128:]
	hot := initial[0] // hot and initially a member
	d := mustNewAbsorbed(t, initial, 81, Params{
		SyncRebuild: true,
		Hot:         pinnedHot{keys: []uint64{hot}},
	})
	qr := rng.New(82)
	check := func(want bool, when string) {
		t.Helper()
		ok, err := d.Contains(hot, qr)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want {
			t.Fatalf("%s: Contains(hot) = %v, want %v", when, ok, want)
		}
	}
	st := d.Stats()
	if !st.SplitPhase || st.HotKeys != 1 {
		t.Fatalf("pinned classifier did not arm a split phase: %+v", st)
	}

	// Flip the key several times inside one phase; every intermediate state
	// must be reader-visible immediately, and changed-ness must track the
	// overlay's state word exactly.
	ops := []struct {
		del     bool
		changed bool
	}{
		{del: true, changed: true},  // member → absent
		{del: true, changed: false}, // already absent
		{del: false, changed: true}, // absent → member
		{del: true, changed: true},  // member → absent
		{del: false, changed: true}, // absent → member (final: present)
	}
	for i, op := range ops {
		var changed bool
		var err error
		if op.del {
			changed, err = d.Delete(hot)
		} else {
			changed, err = d.Insert(hot)
		}
		if err != nil {
			t.Fatal(err)
		}
		if changed != op.changed {
			t.Fatalf("op %d: changed = %v, want %v", i, changed, op.changed)
		}
		check(!op.del, fmt.Sprintf("after op %d", i))
	}
	if got := d.Stats().AbsorbedWrites; got != uint64(len(ops)) {
		t.Fatalf("AbsorbedWrites = %d, want %d", got, len(ops))
	}
	// No claim ever ran for the hot key, so the flip sequence cannot have
	// contended on anything beyond the key's own overlay line.
	if got := d.Stats().WriteCASRetries; got != 0 {
		t.Fatalf("WriteCASRetries = %d on a single-writer absorbed sequence", got)
	}

	// Force a phase seal by filling the buffer with cool inserts; the
	// rebuild must reconcile the overlay's final state (present).
	epoch := d.Stats().Epoch
	for _, k := range filler {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
		if d.Stats().Epoch > epoch {
			break
		}
	}
	if d.Stats().Epoch == epoch {
		t.Fatal("filler inserts never sealed the phase")
	}
	check(true, "after reconciling rebuild (present)")
	if n := d.Len(); n < len(initial) {
		t.Fatalf("Len = %d after reconciliation, want ≥ %d", n, len(initial))
	}

	// Now end a phase with the key absent and reconcile again. Churn
	// insert/delete pairs on filler keys until the buffer fills: pairs are
	// membership-neutral, so only the hot key's polarity is at stake.
	if changed, err := d.Delete(hot); err != nil || !changed {
		t.Fatalf("delete before second seal: changed=%v err=%v", changed, err)
	}
	check(false, "mid-phase after delete")
	epoch = d.Stats().Epoch
	for round := 0; round < 16 && d.Stats().Epoch == epoch; round++ {
		for _, k := range filler {
			if _, err := d.Delete(k); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Insert(k); err != nil {
				t.Fatal(err)
			}
			if d.Stats().Epoch > epoch {
				break
			}
		}
	}
	if d.Stats().Epoch == epoch {
		t.Fatal("filler churn never sealed the phase")
	}
	check(false, "after reconciling rebuild (absent)")
	if st = d.Stats(); st.PhaseSeals < 2 {
		t.Fatalf("PhaseSeals = %d, want ≥ 2", st.PhaseSeals)
	}
}

// TestAbsorbedWritersChangedCounts extends the changed-count linearization
// ledger to the absorbed path: several writers flip a pinned-hot contended
// set (insert→delete→insert churn of the same keys within phases) while
// also churning cool keys hard enough to seal phases mid-storm, so the
// ledger crosses overlay→snapshot reconciliations. For every hot key the
// summed changed-reports plus initial membership must land in {0, 1} and
// agree with Contains — a duplicated or lost absorbed write breaks it.
func TestAbsorbedWritersChangedCounts(t *testing.T) {
	const contended = 32
	writers, ops := 4, 3000
	if testing.Short() {
		writers, ops = 2, 600
	}
	keys := distinctKeys(rng.New(90), 512+contended)
	filler, hot := keys[:512], keys[512:]
	initial := append(append([]uint64{}, filler[:256]...), hot[:contended/2]...)
	d := mustNewAbsorbed(t, initial, 91, Params{Hot: pinnedHot{keys: hot}})
	volatile := filler[256:]

	nets := make([][]int, writers)
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for g := 0; g < writers; g++ {
		nets[g] = make([]int, contended)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(900 + g))
			for i := 0; i < ops; i++ {
				if r.Intn(4) == 0 {
					// Cool churn: fills the buffer and seals phases, so
					// absorbed state reconciles mid-ledger.
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
					continue
				}
				ki := r.Intn(contended)
				if r.Intn(2) == 0 {
					changed, err := d.Insert(hot[ki])
					if err != nil {
						errc <- err
						return
					}
					if changed {
						nets[g][ki]++
					}
				} else {
					changed, err := d.Delete(hot[ki])
					if err != nil {
						errc <- err
						return
					}
					if changed {
						nets[g][ki]--
					}
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

	st := d.Stats()
	if st.AbsorbedWrites == 0 {
		t.Fatal("storm absorbed no writes — hot set never engaged")
	}
	if st.PhaseSeals == 0 {
		t.Fatal("storm sealed no phases — reconciliation never exercised")
	}
	qr := rng.New(92)
	for i := 0; i < contended; i++ {
		membership := 0
		if i < contended/2 {
			membership = 1
		}
		for g := 0; g < writers; g++ {
			membership += nets[g][i]
		}
		if membership != 0 && membership != 1 {
			t.Fatalf("hot key %d: changed-count ledger says membership %d — an absorbed write was double-counted or lost", hot[i], membership)
		}
		ok, err := d.Contains(hot[i], qr)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (membership == 1) {
			t.Fatalf("hot key %d: ledger membership %d but Contains = %v", hot[i], membership, ok)
		}
	}
	// The untouched filler prefix must be fully intact.
	for _, k := range filler[:256] {
		ok, err := d.Contains(k, qr)
		if err != nil || !ok {
			t.Fatalf("filler key %d lost (err %v)", k, err)
		}
	}
	t.Logf("%d writers: %d absorbed, %d phases, %d CAS retries",
		writers, st.AbsorbedWrites, st.PhaseSeals, st.WriteCASRetries)
}

// TestAbsorbedStormZeroCASRetries is the acceptance criterion in its purest
// form: when every write lands on an absorbed-hot key, the split phase
// performs zero CAS retries — not "few", zero — because the absorbed path
// has no CAS at all. A concurrent reader asserts a never-written hot key
// stays visible through the overlay for the storm's whole duration.
func TestAbsorbedStormZeroCASRetries(t *testing.T) {
	writers := runtime.GOMAXPROCS(0)
	if writers < 2 {
		writers = 2
	}
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	keys := distinctKeys(rng.New(100), 64)
	hot := keys[:8]
	stable := hot[0] // absorbed, a member, and never written
	d := mustNewAbsorbed(t, keys, 101, Params{Hot: pinnedHot{keys: hot}})
	src := rng.NewSharded(102, 0)

	var writerWG, readerWG sync.WaitGroup
	var stop atomic.Bool
	errc := make(chan error, writers+1)
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			r := rng.New(uint64(1000 + g))
			for i := 0; i < ops; i++ {
				k := hot[1+r.Intn(len(hot)-1)]
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
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for !stop.Load() {
			ok, err := d.Contains(stable, src)
			if err != nil {
				errc <- err
				return
			}
			if !ok {
				errc <- fmt.Errorf("stable absorbed key %d reported absent mid-storm", stable)
				return
			}
		}
	}()
	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := d.Stats()
	if st.WriteCASRetries != 0 {
		t.Fatalf("split-phase storm performed %d CAS retries, want exactly 0", st.WriteCASRetries)
	}
	if want := uint64(writers * ops); st.AbsorbedWrites < want {
		t.Fatalf("AbsorbedWrites = %d, want ≥ %d", st.AbsorbedWrites, want)
	}
	if st.Buffered != 0 {
		t.Fatalf("absorbed storm left %d buffer entries — hot writes leaked into the claim path", st.Buffered)
	}
}

// TestRotatingHotSetAbsorbedStorm drives the real classifier under the
// ddtxn-style rotating-hot-set schedule: GOMAXPROCS writers churn whatever
// the drive schedules (90% of ops on a rotating 4-key point mass) while the
// classifier detects, promotes and demotes on its own. The storm must
// engage absorption, seal phases, and leave the never-written stable core
// fully intact.
func TestRotatingHotSetAbsorbedStorm(t *testing.T) {
	writers := runtime.GOMAXPROCS(0)
	if writers < 2 {
		writers = 2
	}
	ops := 20000
	if testing.Short() {
		ops = 5000
	}
	keys := distinctKeys(rng.New(110), 1024+64)
	stable, volatile := keys[:1024], keys[1024:]
	drive, err := workload.NewScenario("rotating:4:4096", volatile, 111)
	if err != nil {
		t.Fatal(err)
	}
	d := mustNewAbsorbed(t, stable, 112, Params{
		Hot: telemetry.NewHotKeyClassifier(telemetry.HotKeyConfig{PromoteOps: 64}),
	})

	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(1100 + g))
			for i := 0; i < ops; i++ {
				k := drive.Next().Key
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
		t.Fatal(err)
	}
	d.Quiesce()

	st := d.Stats()
	if st.AbsorbedWrites == 0 {
		t.Fatalf("rotating storm never engaged absorption: %+v", st)
	}
	if st.PhaseSeals == 0 {
		t.Fatalf("rotating storm sealed no phases: %+v", st)
	}
	qr := rng.New(114)
	for _, k := range stable {
		ok, err := d.Contains(k, qr)
		if err != nil || !ok {
			t.Fatalf("stable key %d lost under rotating storm (err %v)", k, err)
		}
	}
	t.Logf("%d writers × %d ops: %d absorbed, %d phases, %d hot now, %d CAS retries",
		writers, ops, st.AbsorbedWrites, st.PhaseSeals, st.HotKeys, st.WriteCASRetries)
}
