package dynamic

import (
	"testing"
	"testing/quick"

	"repro/internal/cellprobe"
	"repro/internal/hash"
	"repro/internal/rng"
)

func distinctKeys(r *rng.RNG, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := r.Uint64n(hash.MaxKey)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func mustNew(t testing.TB, keys []uint64, seed uint64) *Dict {
	t.Helper()
	d, err := New(keys, Params{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestInsertDeleteContains(t *testing.T) {
	r := rng.New(1)
	keys := distinctKeys(r, 200)
	d := mustNew(t, keys[:100], 2)
	qr := rng.New(3)

	check := func(x uint64, want bool) {
		t.Helper()
		ok, err := d.Contains(x, qr)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want {
			t.Fatalf("Contains(%d) = %v, want %v", x, ok, want)
		}
	}

	for _, k := range keys[:100] {
		check(k, true)
	}
	for _, k := range keys[100:] {
		check(k, false)
	}
	// Insert the second hundred.
	for _, k := range keys[100:] {
		changed, err := d.Insert(k)
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			t.Fatalf("Insert(%d) reported no change", k)
		}
		check(k, true)
	}
	if d.Len() != 200 {
		t.Fatalf("Len = %d", d.Len())
	}
	// Delete the first hundred.
	for _, k := range keys[:100] {
		changed, err := d.Delete(k)
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			t.Fatalf("Delete(%d) reported no change", k)
		}
		check(k, false)
	}
	if d.Len() != 100 {
		t.Fatalf("Len = %d after deletes", d.Len())
	}
	for _, k := range keys[100:] {
		check(k, true)
	}
}

func TestIdempotentOps(t *testing.T) {
	initial := []uint64{1, 2, 3}
	d, err := New(initial, Params{SyncRebuild: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The dictionary keeps no reference to the caller's keys: overwriting
	// them changes no answer and no count, after New and after a rebuild.
	qr := rng.New(2)
	clobber := func(wantLen int) {
		t.Helper()
		for i := range initial {
			initial[i] = 100 + uint64(i)
		}
		for _, k := range []uint64{1, 2, 3} {
			if ok, err := d.Contains(k, qr); err != nil || !ok {
				t.Fatalf("Contains(%d) = %v, %v after the caller's keys changed", k, ok, err)
			}
		}
		if ok, _ := d.Contains(100, qr); ok {
			t.Fatal("an overwritten caller key became a member")
		}
		if d.Len() != wantLen {
			t.Fatalf("Len = %d after the caller's keys changed, want %d", d.Len(), wantLen)
		}
	}
	clobber(3)
	if changed, _ := d.Insert(2); changed {
		t.Error("Insert of existing key reported change")
	}
	if changed, _ := d.Delete(99); changed {
		t.Error("Delete of absent key reported change")
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d", d.Len())
	}
	// At n = 3 one buffered insert reaches the threshold and rebuilds inline.
	if _, err := d.Insert(4); err != nil {
		t.Fatal(err)
	}
	if ep := d.Stats().Epoch; ep != 2 {
		t.Fatalf("epoch %d after the threshold insert, want 2", ep)
	}
	clobber(4)
}

func TestRejectsBadInput(t *testing.T) {
	if _, err := New([]uint64{5, 5}, Params{}, 1); err == nil {
		t.Error("duplicates accepted")
	}
	if _, err := New([]uint64{hash.MaxKey}, Params{}, 1); err == nil {
		t.Error("out-of-universe key accepted")
	}
	if _, err := New(nil, Params{Epsilon: 2}, 1); err == nil {
		t.Error("epsilon > 1 accepted")
	}
	d := mustNew(t, nil, 1)
	if _, err := d.Insert(hash.MaxKey); err == nil {
		t.Error("Insert of out-of-universe key accepted")
	}
}

func TestRebuildTriggers(t *testing.T) {
	r := rng.New(4)
	initial := distinctKeys(r, 400)
	d := mustNew(t, initial, 5)
	startEpoch := d.Stats().Epoch
	threshold := d.cur.Load().buf.threshold
	extra := distinctKeys(rng.New(6), 2*threshold+10)
	for _, k := range extra {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	d.Quiesce()
	s := d.Stats()
	if s.Epoch <= startEpoch {
		t.Errorf("no rebuild after %d inserts (threshold %d)", len(extra), threshold)
	}
	// All keys still present after rebuilds.
	qr := rng.New(7)
	for _, k := range extra {
		ok, err := d.Contains(k, qr)
		if err != nil || !ok {
			t.Fatalf("key %d lost across rebuild (err %v)", k, err)
		}
	}
	if s.SnapshotN != d.Len() && s.Buffered == 0 {
		t.Errorf("snapshot %d != len %d with empty buffer", s.SnapshotN, d.Len())
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	d := mustNew(t, []uint64{10, 20, 30}, 8)
	qr := rng.New(9)
	if _, err := d.Delete(20); err != nil {
		t.Fatal(err)
	}
	if ok, _ := d.Contains(20, qr); ok {
		t.Fatal("deleted key still present")
	}
	if _, err := d.Insert(20); err != nil {
		t.Fatal(err)
	}
	ok, err := d.Contains(20, qr)
	if err != nil || !ok {
		t.Fatalf("re-inserted key missing (err %v)", err)
	}
	// The tombstone flip must not have grown the buffer.
	d.Quiesce()
	if d.Stats().Buffered != 0 {
		t.Errorf("buffered = %d after delete+reinsert of snapshot key", d.Stats().Buffered)
	}
}

// TestOracleRandomOps drives a long random op sequence against a map oracle.
func TestOracleRandomOps(t *testing.T) {
	r := rng.New(10)
	pool := distinctKeys(r, 300)
	d := mustNew(t, pool[:50], 11)
	oracle := make(map[uint64]bool)
	for _, k := range pool[:50] {
		oracle[k] = true
	}
	qr := rng.New(12)
	for op := 0; op < 4000; op++ {
		k := pool[r.Intn(len(pool))]
		switch r.Intn(3) {
		case 0:
			changed, err := d.Insert(k)
			if err != nil {
				t.Fatal(err)
			}
			if changed == oracle[k] {
				t.Fatalf("op %d: Insert(%d) changed=%v but oracle has=%v", op, k, changed, oracle[k])
			}
			oracle[k] = true
		case 1:
			changed, err := d.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			if changed != oracle[k] {
				t.Fatalf("op %d: Delete(%d) changed=%v but oracle has=%v", op, k, changed, oracle[k])
			}
			delete(oracle, k)
		default:
			ok, err := d.Contains(k, qr)
			if err != nil {
				t.Fatal(err)
			}
			if ok != oracle[k] {
				t.Fatalf("op %d: Contains(%d) = %v, oracle %v (epoch %d)", op, k, ok, oracle[k], d.Stats().Epoch)
			}
		}
		if d.Len() != len(oracle) {
			t.Fatalf("op %d: Len %d != oracle %d", op, d.Len(), len(oracle))
		}
	}
	d.Quiesce()
	if d.Stats().Epoch < 2 {
		t.Errorf("expected several rebuilds, got epoch %d", d.Stats().Epoch)
	}
}

// TestOracleProperty uses testing/quick over op scripts.
func TestOracleProperty(t *testing.T) {
	f := func(seed uint64, script []byte) bool {
		d, err := New(nil, Params{Epsilon: 0.5}, seed)
		if err != nil {
			return false
		}
		oracle := map[uint64]bool{}
		qr := rng.New(seed + 1)
		for _, b := range script {
			k := uint64(b % 32) // small key space forces collisions
			if b&0x80 == 0 {
				if _, err := d.Insert(k); err != nil {
					return false
				}
				oracle[k] = true
			} else {
				if _, err := d.Delete(k); err != nil {
					return false
				}
				delete(oracle, k)
			}
		}
		for k := uint64(0); k < 32; k++ {
			ok, err := d.Contains(k, qr)
			if err != nil || ok != oracle[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReadContentionStaysBounded: after churn, the empirical read contention
// on both tables stays within a constant of optimal.
func TestReadContentionStaysBounded(t *testing.T) {
	r := rng.New(13)
	keys := distinctKeys(r, 1024)
	d := mustNew(t, keys[:768], 14)
	// Churn: insert the rest, delete a third of the original.
	for _, k := range keys[768:] {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:256] {
		if _, err := d.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	live := keys[256:]

	// Probe recording is a sequential measurement mode: settle the epoch
	// before attaching recorders.
	d.Quiesce()
	baseRec := cellprobe.NewRecorder(d.BaseTable().Size())
	bufRec := cellprobe.NewRecorder(d.BufferTable().Size())
	d.BaseTable().Attach(baseRec)
	d.BufferTable().Attach(bufRec)
	qr := rng.New(15)
	const queries = 60000
	for i := 0; i < queries; i++ {
		k := live[qr.Intn(len(live))]
		ok, err := d.Contains(k, qr)
		if err != nil || !ok {
			t.Fatalf("lost key %d (err %v)", k, err)
		}
		baseRec.EndQuery()
		bufRec.EndQuery()
	}
	d.BaseTable().Detach()
	d.BufferTable().Detach()

	baseRatio := baseRec.MaxStepContention() * float64(d.BaseTable().Size())
	if baseRatio > 128 {
		t.Errorf("base read contention ratio %.1f after churn", baseRatio)
	}
	// Buffer parameter probes are spread across the row; slot probes are
	// per-key. The hottest buffer cell must stay well below contention 1.
	if hot := bufRec.MaxStepContention(); hot > 0.1 {
		t.Errorf("buffer hot cell contention %.3f", hot)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := mustNew(t, []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 16)
	s := d.Stats()
	if s.Epoch != 1 || s.SnapshotN != 8 || s.Len != 8 {
		t.Errorf("initial stats %+v", s)
	}
	if s.BufferSlots < 8 {
		t.Errorf("buffer slots %d", s.BufferSlots)
	}
	for k := uint64(100); k < 120; k++ {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	d.Quiesce()
	s = d.Stats()
	if s.Updates != 20 {
		t.Errorf("updates = %d, want 20", s.Updates)
	}
	if s.RebuildKeys <= 8 {
		t.Errorf("rebuild keys %d, want amortization evidence", s.RebuildKeys)
	}
	if d.MaxReadProbes() < 10 {
		t.Errorf("MaxReadProbes = %d", d.MaxReadProbes())
	}
	if s.WriteProbes < uint64(s.Updates)*2 {
		t.Errorf("WriteProbes = %d for %d updates", s.WriteProbes, s.Updates)
	}
	qr := rng.New(99)
	before := d.Stats().ReadProbes
	if _, err := d.Contains(1, qr); err != nil {
		t.Fatal(err)
	}
	if after := d.Stats().ReadProbes; after <= before {
		t.Errorf("ReadProbes did not advance: %d -> %d", before, after)
	}
}

func TestEmptyDynamic(t *testing.T) {
	d := mustNew(t, nil, 17)
	qr := rng.New(18)
	if ok, err := d.Contains(42, qr); err != nil || ok {
		t.Errorf("empty dict Contains(42) = %v, %v", ok, err)
	}
	if _, err := d.Insert(42); err != nil {
		t.Fatal(err)
	}
	if ok, _ := d.Contains(42, qr); !ok {
		t.Error("inserted key missing from empty-start dict")
	}
}

func BenchmarkInsert(b *testing.B) {
	r := rng.New(1)
	d, err := New(distinctKeys(r, 4096), Params{}, 2)
	if err != nil {
		b.Fatal(err)
	}
	fresh := distinctKeys(rng.New(3), b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Insert(fresh[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicContains(b *testing.B) {
	r := rng.New(1)
	keys := distinctKeys(r, 4096)
	d, err := New(keys, Params{}, 2)
	if err != nil {
		b.Fatal(err)
	}
	qr := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Contains(keys[i%len(keys)], qr); err != nil {
			b.Fatal(err)
		}
	}
}

// TestContainsBatchAgreesWithContains: the batched path answers against one
// epoch snapshot and must agree with per-key queries on a quiescent dict.
func TestContainsBatchAgreesWithContains(t *testing.T) {
	r := rng.New(51)
	keys := distinctKeys(r, 400)
	d := mustNew(t, keys[:200], 5)
	for _, k := range keys[200:300] {
		if _, err := d.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:50] {
		if _, err := d.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	d.Quiesce()
	qr := rng.New(52)
	out := make([]bool, len(keys))
	if err := d.ContainsBatch(keys, out, qr); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		want, err := d.Contains(k, qr)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("batch[%d] (key %d) = %v, want %v", i, k, out[i], want)
		}
	}
	if err := d.ContainsBatch(keys, out[:3], qr); err == nil {
		t.Error("short output slice accepted")
	}
}
