package events

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
)

// TestEmitTimelineSingle checks the basic emit → timeline → cursor contract.
func TestEmitTimelineSingle(t *testing.T) {
	l := NewLog()
	l.Emit(RebuildStart, 0, 1, 100, 0)
	l.Emit(RebuildEnd, 0, 1, 100, 12345)
	evs, next := l.Timeline(0, 0)
	if len(evs) != 2 {
		t.Fatalf("timeline returned %d events, want 2", len(evs))
	}
	if evs[0].Type != RebuildStart || evs[1].Type != RebuildEnd {
		t.Fatalf("wrong order: %v, %v", evs[0].Type, evs[1].Type)
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 || next != 2 {
		t.Fatalf("cursors: seq %d,%d next %d", evs[0].Seq, evs[1].Seq, next)
	}
	if evs[1].A != 1 || evs[1].B != 100 || evs[1].C != 12345 {
		t.Fatalf("payload torn: %+v", evs[1])
	}
	// Nothing new: same cursor back, no events.
	evs, next2 := l.Timeline(next, 0)
	if len(evs) != 0 || next2 != next {
		t.Fatalf("idle timeline returned %d events, cursor %d (want %d)", len(evs), next2, next)
	}
}

// TestTimelinePagination checks the since-cursor contract page by page.
func TestTimelinePagination(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Emit(EpochSealed, 0, uint64(i), 0, 0)
	}
	var got []Event
	cursor := uint64(0)
	for {
		page, next := l.Timeline(cursor, 3)
		if len(page) == 0 {
			break
		}
		if len(page) > 3 {
			t.Fatalf("page of %d > max 3", len(page))
		}
		got = append(got, page...)
		cursor = next
	}
	if len(got) != 10 {
		t.Fatalf("paged to %d events, want 10", len(got))
	}
	for i, ev := range got {
		if ev.A != uint64(i) || ev.Seq != uint64(i+1) {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
	}
}

// TestTimelineWindowSkip checks that a cursor older than the retained
// window skips forward instead of sticking.
func TestTimelineWindowSkip(t *testing.T) {
	l := newLog(16) // tiny retained window
	for i := 0; i < 100; i++ {
		l.Emit(EpochSealed, 0, uint64(i), 0, 0)
	}
	evs, next := l.Timeline(0, 0)
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want window 16", len(evs))
	}
	if evs[0].Seq != 85 || next != 100 {
		t.Fatalf("window [%d..%d], want [85..100]", evs[0].Seq, next)
	}
}

// TestConcurrentEmitters runs GOMAXPROCS emitters against one concurrent
// reader under -race. Every emission must be recorded exactly once and
// untorn (each event's payload is a self-consistent function of its emitter
// and per-emitter index), the cursors must run from 1 without a gap, and
// each emitter's events must appear in its own emission order.
func TestConcurrentEmitters(t *testing.T) {
	writers := max(runtime.GOMAXPROCS(0), 2)
	const perWriter = 2000
	l := newLog(writers * perWriter)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// One reader paging concurrently with the writers.
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	var collected []Event
	go func() {
		defer readerWG.Done()
		cursor := uint64(0)
		for {
			page, next := l.Timeline(cursor, 0)
			collected = append(collected, page...)
			cursor = next
			select {
			case <-stop:
				page, _ := l.Timeline(cursor, 0)
				collected = append(collected, page...)
				return
			default:
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Payload: A = writer, B = per-writer index, C = A ^ B — the
				// torn-write detector.
				a, b := uint64(w), uint64(i)
				l.Emit(EpochSealed, w, a, b, a^b)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if len(collected) != writers*perWriter {
		t.Fatalf("read %d events, want every one of %d emissions", len(collected), writers*perWriter)
	}
	next := make([]uint64, writers) // each writer's next expected index
	for i, ev := range collected {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has cursor %d: cursors must run from 1 without a gap", i, ev.Seq)
		}
		if ev.Type != EpochSealed {
			t.Fatalf("unexpected event type %v", ev.Type)
		}
		w := int(ev.A)
		if w < 0 || w >= writers || ev.C != ev.A^ev.B || int32(w) != ev.Shard {
			t.Fatalf("torn event: %+v", ev)
		}
		if ev.B != next[w] {
			t.Fatalf("writer %d: index %d where %d was next", w, ev.B, next[w])
		}
		next[w]++
	}
	if s := l.Stats(); s.Recorded != uint64(writers*perWriter) {
		t.Fatalf("Stats().Recorded = %d, want %d", s.Recorded, writers*perWriter)
	}
}

// TestEventJSON checks the /debug/timeline wire schema fields per type.
func TestEventJSON(t *testing.T) {
	cases := []struct {
		ev   Event
		want []string
	}{
		{Event{Seq: 1, Type: EpochSealed, A: 3, B: 17}, []string{`"type":"epoch_sealed"`, `"epoch":3`, `"buffered":17`}},
		{Event{Seq: 2, Type: RebuildEnd, A: MarkFailed(4), B: 9, C: 55}, []string{`"type":"rebuild_end"`, `"failed":true`, `"epoch":4`, `"duration_ns":55`}},
		{Event{Seq: 4, Type: ShardRebuild, A: 2, B: 8, C: 9}, []string{`"type":"shard_rebuild"`, `"epoch":2`, `"keys":8`, `"duration_ns":9`}},
	}
	for _, c := range cases {
		raw, err := json.Marshal(c.ev)
		if err != nil {
			t.Fatalf("marshal %v: %v", c.ev.Type, err)
		}
		for _, frag := range c.want {
			if !contains(string(raw), frag) {
				t.Fatalf("%v JSON %s missing %s", c.ev.Type, raw, frag)
			}
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestStats checks the snapshot-embedding summary.
func TestStats(t *testing.T) {
	l := NewLog()
	l.Emit(RebuildStart, 0, 1, 10, 0)
	l.Emit(RebuildEnd, 0, 1, 10, 99)
	l.Emit(RebuildEnd, 0, 2, 11, 98)
	s := l.Stats()
	if s.Recorded != 3 || s.NextCursor != 3 {
		t.Fatalf("stats %+v", s)
	}
	if s.ByType["rebuild_end"] != 2 || s.ByType["rebuild_start"] != 1 {
		t.Fatalf("by-type %v", s.ByType)
	}
}

// BenchmarkEmit measures the producer path (single goroutine).
func BenchmarkEmit(b *testing.B) {
	l := NewLog()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit(EpochSealed, 0, uint64(i), 0, 0)
	}
}
