package lcds

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
)

// TestEventLogOff checks that a dictionary built without WithEventLog and
// without WithTelemetry has no flight recorder and that Timeline degrades to
// the identity cursor.
func TestEventLogOff(t *testing.T) {
	keys := testKeys(300, 61)
	d, err := New(keys, WithSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	if d.EventLog() != nil {
		t.Fatal("bare dictionary has an event log")
	}
	if evs, next := d.Timeline(7, 10); evs != nil || next != 7 {
		t.Fatalf("Timeline off = (%v, %d), want (nil, 7)", evs, next)
	}
}

// TestEventLogStatic checks the WithEventLog surface on a static dictionary:
// the log exists, queries run at full speed (the pooled paths stay
// zero-alloc), and the timeline is empty — static dictionaries have no
// structural transitions to record.
func TestEventLogStatic(t *testing.T) {
	keys := testKeys(2000, 62)
	d, err := New(keys, WithSeed(62), WithEventLog())
	if err != nil {
		t.Fatal(err)
	}
	if d.EventLog() == nil {
		t.Fatal("WithEventLog left no log")
	}
	assertPooledPathsZeroAlloc(t, d, keys)
	if evs, _ := d.Timeline(0, 100); len(evs) != 0 {
		t.Fatalf("static dictionary recorded %d events", len(evs))
	}
}

// TestEventLogTelemetryImplied checks that WithTelemetry alone installs the
// always-on log, that an explicit WithEventLog log is the one the telemetry
// layer shares, and that the telemetry snapshot carries the log's stats.
func TestEventLogTelemetryImplied(t *testing.T) {
	keys := testKeys(500, 63)
	d, err := New(keys, WithSeed(63), WithTelemetry(TelemetryConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if d.EventLog() == nil {
		t.Fatal("WithTelemetry left no event log")
	}
	if d.EventLog() != d.Telemetry().Events() {
		t.Fatal("facade log differs from the telemetry layer's")
	}
	s := d.Telemetry().Snapshot()
	if s.Events.ByType == nil {
		t.Fatal("snapshot carries no event stats")
	}

	d2, err := New(keys, WithSeed(63),
		WithTelemetry(TelemetryConfig{}), WithEventLog())
	if err != nil {
		t.Fatal(err)
	}
	if d2.EventLog() != d2.Telemetry().Events() {
		t.Fatal("explicit log was not shared with the telemetry layer")
	}
}

// checkTimelineCoherence asserts the structural invariants of a timeline:
// per shard, every RebuildStart is balanced by a RebuildEnd (after Quiesce)
// and epochs never decrease. It returns the per-type totals observed.
func checkTimelineCoherence(t *testing.T, evs []Event) map[EventType]int {
	t.Helper()
	starts := map[int32]int{}
	ends := map[int32]int{}
	lastEpoch := map[int32]uint64{}
	counts := map[EventType]int{}
	var lastSeq uint64
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("timeline seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		counts[ev.Type]++
		switch ev.Type {
		case EventRebuildStart:
			starts[ev.Shard]++
			if ev.A < lastEpoch[ev.Shard] {
				t.Fatalf("shard %d epoch went backwards: %d after %d", ev.Shard, ev.A, lastEpoch[ev.Shard])
			}
			lastEpoch[ev.Shard] = ev.A
		case EventRebuildEnd:
			if _, failed := EventFailedRebuild(ev.A); failed {
				t.Fatalf("unexpected failed rebuild: %+v", ev)
			}
			ends[ev.Shard]++
		}
	}
	for shard, n := range starts {
		if ends[shard] != n {
			t.Fatalf("shard %d: %d RebuildStart vs %d RebuildEnd", shard, n, ends[shard])
		}
	}
	return counts
}

// TestEventLogDynamicTimeline churns a dynamic dictionary (one shard,
// four, and under GOMAXPROCS concurrent writers) and checks the recorded
// timeline is coherent: sealed epochs, balanced rebuilds, shard labels
// within range.
func TestEventLogDynamicTimeline(t *testing.T) {
	for _, tc := range []struct {
		shards int
		// concurrent replaces the serial churn with hot churn on one key,
		// then GOMAXPROCS writers, each flipping a disjoint fresh-key block
		// for 8 rounds.
		concurrent bool
	}{{1, false}, {4, false}, {1, true}} {
		shards := tc.shards
		keys := testKeys(1200, 64)
		opts := []Option{WithSeed(64), WithEventLog()}
		if shards > 1 {
			opts = append(opts, WithShards(shards))
		}
		d, err := NewDynamic(keys[:600], 0.1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if tc.concurrent {
			// Hot churn on one key reuses its one buffer slot; the
			// concurrent flips then fill the buffer through rebuild seals.
			for i := 0; i < 4096 && err == nil; i++ {
				if i%2 == 0 {
					_, err = d.Delete(keys[0])
				} else {
					_, err = d.Insert(keys[0])
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			flipConcurrently(t, d, keys[600:], 8)
		} else {
			for _, k := range keys[600:] {
				if _, err := d.Insert(k); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range keys[:300] {
				if _, err := d.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
		}
		d.Quiesce()
		evs, next := d.Timeline(0, 1<<20)
		if len(evs) == 0 {
			t.Fatalf("shards=%d: empty timeline after churn", shards)
		}
		if next != evs[len(evs)-1].Seq {
			t.Fatalf("cursor %d != last seq %d", next, evs[len(evs)-1].Seq)
		}
		counts := checkTimelineCoherence(t, evs)
		if counts[EventRebuildStart] < shards {
			t.Fatalf("shards=%d: only %d rebuilds recorded", shards, counts[EventRebuildStart])
		}
		if counts[EventEpochSealed] == 0 {
			t.Fatalf("shards=%d: no sealed epochs recorded", shards)
		}
		if shards > 1 && counts[EventShardRebuild] == 0 {
			t.Fatal("sharded dictionary recorded no ShardRebuild events")
		}
		for _, ev := range evs {
			if ev.Shard < 0 || int(ev.Shard) >= shards {
				t.Fatalf("event shard %d outside [0, %d)", ev.Shard, shards)
			}
			if _, err := json.Marshal(ev); err != nil {
				t.Fatalf("event does not marshal: %v", err)
			}
		}
		// Incremental pagination from the cursor sees only what happens next.
		if more, next2 := d.Timeline(next, 100); len(more) != 0 || next2 != next {
			t.Fatalf("quiesced dictionary kept emitting: %d events", len(more))
		}
	}
}

// flipConcurrently runs one writer goroutine per processor, each inserting
// and then deleting its own disjoint block of fresh keys, rounds times.
func flipConcurrently(t *testing.T, d *DynamicDict, fresh []uint64, rounds int) {
	t.Helper()
	workers := runtime.GOMAXPROCS(0)
	block := min(64, len(fresh)/workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(keys []uint64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, k := range keys {
					if _, err := d.Insert(k); err != nil {
						t.Error(err)
						return
					}
				}
				for _, k := range keys {
					if _, err := d.Delete(k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(fresh[w*block : (w+1)*block])
	}
	wg.Wait()
}
