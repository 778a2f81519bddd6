package lincheck

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

func absent(uint64) bool { return false }

// TestRejectsPlantedHistory: a Contains that answers true after a Delete of
// the key has returned, with no Insert in between, has no linearization.
func TestRejectsPlantedHistory(t *testing.T) {
	bad := []Op{
		{Kind: Insert, Key: 7, Result: true, Call: 0, Return: 10},
		{Kind: Delete, Key: 7, Result: true, Call: 20, Return: 30},
		{Kind: Contains, Key: 7, Result: true, Call: 40, Return: 50},
	}
	err := Check(bad, absent)
	if err == nil || !strings.Contains(err.Error(), "key 7") {
		t.Fatalf("planted history accepted (err %v)", err)
	}
	// The same history becomes linearizable once an Insert overlaps it.
	ok := append(bad, Op{Kind: Insert, Key: 7, Result: true, Call: 25, Return: 45})
	if err := Check(ok, absent); err != nil {
		t.Fatalf("overlapping insert should explain the read: %v", err)
	}
}

// TestChecksEachKey: one bad key fails the history however many good keys
// surround it, and a key's initial membership is honoured.
func TestChecksEachKey(t *testing.T) {
	h := []Op{
		{Kind: Delete, Key: 1, Result: true, Call: 0, Return: 5}, // 1 starts present
		{Kind: Contains, Key: 2, Result: false, Call: 0, Return: 5},
		{Kind: Insert, Key: 3, Result: true, Call: 0, Return: 5},
		{Kind: Insert, Key: 3, Result: true, Call: 6, Return: 9}, // changed twice, no delete
	}
	initial := func(k uint64) bool { return k == 1 }
	err := Check(h, initial)
	if err == nil || !strings.Contains(err.Error(), "key 3") {
		t.Fatalf("double insert of key 3 accepted (err %v)", err)
	}
	if err := Check(h[:3], initial); err != nil {
		t.Fatal(err)
	}
	if err := Check(h[:1], absent); err == nil {
		t.Fatal("changed delete of an absent key accepted")
	}
}

// TestOverlapOrdersFreely: overlapping operations may linearize in either
// order, and equal timestamps count as overlapping.
func TestOverlapOrdersFreely(t *testing.T) {
	h := []Op{
		{Kind: Contains, Key: 4, Result: false, Call: 0, Return: 10},
		{Kind: Insert, Key: 4, Result: true, Call: 5, Return: 15},
		{Kind: Contains, Key: 4, Result: true, Call: 0, Return: 10},
		{Kind: Delete, Key: 4, Result: true, Call: 15, Return: 20},
	}
	if err := Check(h, absent); err != nil {
		t.Fatal(err)
	}
	// A Delete=false strictly after the true Contains has nothing to explain
	// it: the Insert precedes that Contains, which precedes the Delete.
	late := append(h, Op{Kind: Delete, Key: 4, Result: false, Call: 11, Return: 14})
	if err := Check(late, absent); err == nil {
		t.Fatal("delete=false after an observed insert accepted")
	}
	// Touching the changed Delete's return (a tie) it may linearize after it.
	tie := append(h, Op{Kind: Delete, Key: 4, Result: false, Call: 20, Return: 25})
	if err := Check(tie, absent); err != nil {
		t.Fatal(err)
	}
}

// TestAgreesWithBruteForce compares the search with an exhaustive check of
// every permutation on small random histories, valid and invalid alike.
func TestAgreesWithBruteForce(t *testing.T) {
	r := rng.New(1)
	accepted, rejected := 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(6)
		ops := make([]Op, n)
		for i := range ops {
			call := int64(r.Intn(20))
			ops[i] = Op{
				Kind:   Kind(r.Intn(3)),
				Key:    9,
				Result: r.Intn(2) == 0,
				Call:   call,
				Return: call + int64(r.Intn(8)),
			}
		}
		init := r.Intn(2) == 0
		want := bruteForce(ops, init)
		got := Check(ops, func(uint64) bool { return init }) == nil
		if got != want {
			t.Fatalf("trial %d: search says %v, brute force %v (initial %v):\n%s", trial, got, want, init, excerpt(ops))
		}
		if want {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 100 || rejected < 100 {
		t.Fatalf("unbalanced trials: %d linearizable, %d not", accepted, rejected)
	}
}

// TestAcceptsRecordedSequentialRuns: histories generated from a real set,
// each operation's interval stretched around its true instant so that
// neighbours overlap, always pass.
func TestAcceptsRecordedSequentialRuns(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 100; trial++ {
		member := map[uint64]bool{}
		h := make([]Op, 400)
		for i := range h {
			k := uint64(r.Intn(4))
			op := Op{Kind: Kind(r.Intn(3)), Key: k}
			switch op.Kind {
			case Contains:
				op.Result = member[k]
			case Insert:
				op.Result, member[k] = !member[k], true
			case Delete:
				op.Result, member[k] = member[k], false
			}
			at := int64(10 * i)
			op.Call, op.Return = at-int64(r.Intn(40)), at+int64(r.Intn(40))
			h[i] = op
		}
		if err := Check(h, absent); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// bruteForce tries every order of ops consistent with their real-time order.
func bruteForce(ops []Op, initial bool) bool {
	used := make([]bool, len(ops))
	var try func(done int, member bool) bool
	try = func(done int, member bool) bool {
		if done == len(ops) {
			return true
		}
		for i, op := range ops {
			if used[i] {
				continue
			}
			// op may go next only if no other pending op returned before
			// op was invoked.
			minimal := true
			for j, o := range ops {
				if !used[j] && j != i && o.Return < op.Call {
					minimal = false
					break
				}
			}
			if !minimal {
				continue
			}
			ok, after := apply(op, member)
			if !ok {
				continue
			}
			used[i] = true
			if try(done+1, after) {
				used[i] = false
				return true
			}
			used[i] = false
		}
		return false
	}
	return try(0, initial)
}
