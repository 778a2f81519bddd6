package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
)

// TestScenarioDeterminism is the registry-wide determinism battery: for
// every registered scenario, the realized key/op schedule for a given seed
// is identical regardless of how many goroutines drive it. Concurrent
// drivers claim distinct positions from the shared cursor, so the multiset
// of executed ops over one claimed prefix must equal the serial schedule's
// prefix exactly. CI runs this under -race at GOMAXPROCS=4.
func TestScenarioDeterminism(t *testing.T) {
	keys := MemberKeys(256, 42)
	for _, spec := range ScenarioNames() {
		t.Run(spec, func(t *testing.T) {
			serial, err := NewScenario(spec, keys, 7)
			if err != nil {
				t.Fatal(err)
			}
			total := serial.PassLen()
			if total > 1<<14 {
				total = 1 << 14
			}
			want := map[Op]int{}
			for i := 0; i < total; i++ {
				want[serial.At(i)]++
			}
			for _, workers := range []int{1, 2, 4, 7} {
				sc, err := NewScenario(spec, keys, 7)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]map[Op]int, workers)
				per := total / workers
				extra := total - per*workers
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					claim := per
					if w < extra {
						claim++
					}
					got[w] = map[Op]int{}
					wg.Add(1)
					go func(w, claim int) {
						defer wg.Done()
						for i := 0; i < claim; i++ {
							got[w][sc.Next()]++
						}
					}(w, claim)
				}
				wg.Wait()
				merged := map[Op]int{}
				for _, m := range got {
					for op, c := range m {
						merged[op] += c
					}
				}
				if len(merged) != len(want) {
					t.Fatalf("%d workers realized %d distinct ops, serial schedule has %d",
						workers, len(merged), len(want))
				}
				for op, c := range want {
					if merged[op] != c {
						t.Fatalf("%d workers realized op %+v %d times, serial schedule %d",
							workers, op, merged[op], c)
					}
				}
			}
		})
	}
}

// TestScenarioAtPure pins At as a pure function: two independently
// constructed instances agree position by position, and At never perturbs
// the shared cursor or later At calls.
func TestScenarioAtPure(t *testing.T) {
	keys := MemberKeys(128, 3)
	for _, spec := range ScenarioNames() {
		a, err := NewScenario(spec, keys, 11)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		b, err := NewScenario(spec, keys, 11)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		const probe = 4096
		// Read b out of order first, then compare in order: order of access
		// must not matter.
		for i := probe - 1; i >= 0; i-- {
			b.At(i)
		}
		for i := 0; i < probe; i++ {
			if a.At(i) != b.At(i) {
				t.Fatalf("%s: At(%d) differs between instances: %+v vs %+v",
					spec, i, a.At(i), b.At(i))
			}
		}
		// A different seed must change the schedule somewhere (point and
		// flood are single-key patterns whose op sequence is seed-free).
		if spec == "point" || spec == "flood" {
			continue
		}
		c, err := NewScenario(spec, keys, 12)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := 0; i < probe; i++ {
			if a.At(i) != c.At(i) {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seed 11 and 12 produce identical %d-op prefixes", spec, probe)
		}
	}
}

// TestScenarioGrammar pins the spec parser: accepted forms, defaults, and
// every malformed spec rejected.
func TestScenarioGrammar(t *testing.T) {
	keys := MemberKeys(64, 5)
	for _, good := range []string{
		"uniform", "zipf:0", "zipf:1.2", "point",
		"rotating:4:512", "auction", "auction:4:512", "flood",
	} {
		if _, err := NewScenario(good, keys, 1); err != nil {
			t.Errorf("spec %q rejected: %v", good, err)
		}
	}
	for _, bad := range []string{
		"", "hot", "zipf", "zipf:x", "zipf:-1", "zipf:NaN",
		"rotating:", "rotating:4", "rotating:x:512", "rotating:4:x",
		"rotating:0:512", "rotating:4:0", "rotating:65:512",
		"auction:4", "auction:0:512", "flood:9",
	} {
		if _, err := NewScenario(bad, keys, 1); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if _, err := NewScenario("uniform", nil, 1); err == nil {
		t.Error("empty key set accepted")
	}
}

// TestScenarioShapes pins each family's semantic contract: op mix, key
// targeting, read-only flag, and support exposure.
func TestScenarioShapes(t *testing.T) {
	keys := MemberKeys(64, 9)
	inKeys := map[uint64]bool{}
	for _, k := range keys {
		inKeys[k] = true
	}

	counts := func(s *Scenario, n int) (reads, inserts, deletes int) {
		for i := 0; i < n; i++ {
			op := s.At(i)
			if !inKeys[op.Key] {
				t.Fatalf("%s: At(%d) targets non-member key %d", s.Name(), i, op.Key)
			}
			switch op.Kind {
			case OpRead:
				reads++
			case OpInsert:
				inserts++
			case OpDelete:
				deletes++
			}
		}
		return
	}

	for _, spec := range []string{"uniform", "zipf:1.1", "point", "rotating:8:4096"} {
		s, err := NewScenario(spec, keys, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !s.ReadOnly() {
			t.Errorf("%s: not read-only", spec)
		}
		reads, ins, del := counts(s, s.PassLen())
		if ins != 0 || del != 0 || reads != s.PassLen() {
			t.Errorf("%s: op mix %d/%d/%d over pass %d", spec, reads, ins, del, s.PassLen())
		}
	}

	uni, _ := NewScenario("uniform", keys, 1)
	if sup := uni.Support(); len(sup) != len(keys) {
		t.Errorf("uniform support has %d keys, want %d", len(sup), len(keys))
	}
	pt, _ := NewScenario("point", keys, 1)
	if sup := pt.Support(); len(sup) != 1 || sup[0].Key != keys[0] || sup[0].P != 1 {
		t.Errorf("point support %v", sup)
	}
	for i := 0; i < 64; i++ {
		if op := pt.At(i); op.Key != keys[0] {
			t.Fatalf("point At(%d) = key %d, want %d", i, op.Key, keys[0])
		}
	}
	rot, _ := NewScenario("rotating:8:4096", keys, 1)
	if rot.Support() != nil {
		t.Error("rotating scenario claims a stationary support")
	}

	auction, err := NewScenario("auction", keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if auction.ReadOnly() || auction.Support() != nil {
		t.Error("auction should be mutating with no support")
	}
	reads, ins, del := counts(auction, auction.PassLen())
	writes := ins + del
	if want := auction.PassLen() / 8; writes != want || ins != del {
		t.Errorf("auction writes %d (ins %d del %d), want %d balanced", writes, ins, del, want)
	}
	if reads != auction.PassLen()-writes {
		t.Errorf("auction reads %d", reads)
	}

	flood, err := NewScenario("flood", keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if flood.ReadOnly() || flood.Support() != nil {
		t.Error("flood should be mutating with no support")
	}
	reads, ins, del = counts(flood, flood.PassLen())
	if ins != del || ins+del != flood.PassLen()*9/10 {
		t.Errorf("flood op mix reads=%d ins=%d del=%d over pass %d", reads, ins, del, flood.PassLen())
	}
	for i := 0; i < 128; i++ {
		if op := flood.At(i); op.Key != keys[0] {
			t.Fatalf("flood At(%d) targets key %d, want point mass on %d", i, op.Key, keys[0])
		}
	}
}

// TestScenarioScheduleStable pins every registered schedule, and the two
// the repo benchmark drives (uniform and zipf:1.1 over its 32768 member
// keys), to a golden FNV-64 hash of positions 0..65535 at seed 1. A change
// that moves any schedule, and with it the benchmark's traffic, fails here.
func TestScenarioScheduleStable(t *testing.T) {
	cases := []struct {
		spec string
		n    int
		want uint64
	}{
		{"uniform", 4096, 0xc8ad7c089f9a0465},
		{"zipf:1.1", 4096, 0xc4c650c362970725},
		{"point", 4096, 0xd52a92393aaa2325},
		{"rotating:8:4096", 4096, 0x4f010cb1d9074cff},
		{"auction", 4096, 0x548ca7c2619adabf},
		{"flood", 4096, 0x3e6551e0ec13dcd},
		{"uniform", 32768, 0x5e7f87da86e6e8f5},
		{"zipf:1.1", 32768, 0x974ccba084dd8079},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		if c.n == 4096 {
			covered[c.spec] = true
		}
	}
	for _, spec := range ScenarioNames() {
		if !covered[spec] {
			t.Errorf("scenario %q has no golden schedule hash", spec)
		}
	}
	for _, c := range cases {
		sc, err := NewScenario(c.spec, MemberKeys(c.n, 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [9]byte
		for i := 0; i < 1<<16; i++ {
			op := sc.At(i)
			buf[0] = byte(op.Kind)
			binary.LittleEndian.PutUint64(buf[1:], op.Key)
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s over %d keys: schedule hash %#x, want %#x", c.spec, c.n, got, c.want)
		}
	}
}

// TestMemberKeys pins the shared key-derivation convention: deterministic,
// distinct, and stable across instance counts — the contract that lets
// perfbench reconstruct a server's key set from (n, seed) alone.
func TestMemberKeys(t *testing.T) {
	a := MemberKeys(512, 77)
	b := MemberKeys(512, 77)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("MemberKeys not deterministic")
	}
	// A prefix request yields a prefix of the longer draw.
	c := MemberKeys(64, 77)
	for i, k := range c {
		if a[i] != k {
			t.Fatalf("MemberKeys(64) diverges from MemberKeys(512) at %d", i)
		}
	}
	seen := map[uint64]bool{}
	for _, k := range a {
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
	if d := MemberKeys(64, 78); fmt.Sprint(c) == fmt.Sprint(d) {
		t.Error("seed change did not move the key set")
	}
}
