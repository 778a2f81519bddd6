package dynamic

import (
	"testing"

	"repro/internal/lincheck"
	"repro/internal/rng"
)

// opLog records one goroutine's operations on d, with invoke and return
// times from a shared lincheck clock, so a concurrent test can check the
// history it drove for linearizability. It is not safe for concurrent use:
// give each goroutine its own.
type opLog struct {
	d   *Dict
	clk *lincheck.Clock
	ops []lincheck.Op
}

func newOpLogs(d *Dict, clk *lincheck.Clock, n int) []*opLog {
	logs := make([]*opLog, n)
	for i := range logs {
		logs[i] = &opLog{d: d, clk: clk}
	}
	return logs
}

// write runs Insert(k), or Delete(k) when del, and records it.
func (l *opLog) write(k uint64, del bool) (bool, error) {
	call := l.clk.Now()
	kind := lincheck.Insert
	var changed bool
	var err error
	if del {
		kind = lincheck.Delete
		changed, err = l.d.Delete(k)
	} else {
		changed, err = l.d.Insert(k)
	}
	if err == nil {
		l.ops = append(l.ops, lincheck.Op{Kind: kind, Key: k, Result: changed, Call: call, Return: l.clk.Now()})
	}
	return changed, err
}

// contains runs Contains(k) and records it.
func (l *opLog) contains(k uint64, r rng.Source) (bool, error) {
	call := l.clk.Now()
	ok, err := l.d.Contains(k, r)
	if err == nil {
		l.ops = append(l.ops, lincheck.Op{Kind: lincheck.Contains, Key: k, Result: ok, Call: call, Return: l.clk.Now()})
	}
	return ok, err
}

// containsBatch runs ContainsBatch and records every answer as a Contains
// spanning the whole batch call.
func (l *opLog) containsBatch(keys []uint64, out []bool, r rng.Source) error {
	call := l.clk.Now()
	err := l.d.ContainsBatch(keys, out, r)
	if err == nil {
		ret := l.clk.Now()
		for i, k := range keys {
			l.ops = append(l.ops, lincheck.Op{Kind: lincheck.Contains, Key: k, Result: out[i], Call: call, Return: ret})
		}
	}
	return err
}

// checkHistory merges the logs and fails t unless the history is
// linearizable from the given initial membership.
func checkHistory(t *testing.T, logs []*opLog, initial func(uint64) bool) {
	t.Helper()
	var h []lincheck.Op
	for _, l := range logs {
		h = append(h, l.ops...)
	}
	if len(h) == 0 {
		t.Fatal("no operations recorded")
	}
	if err := lincheck.Check(h, initial); err != nil {
		t.Fatal(err)
	}
	t.Logf("history of %d operations is linearizable", len(h))
}

// inSet returns an initial-membership function for keys.
func inSet(keys []uint64) func(uint64) bool {
	set := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return func(k uint64) bool { return set[k] }
}
