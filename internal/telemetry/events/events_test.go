package events

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
)

// TestEmitTimelineSingle checks the basic emit → drain → cursor contract.
func TestEmitTimelineSingle(t *testing.T) {
	l := NewLog(16, 64)
	if !l.Emit(RebuildStart, 0, 1, 100, 0) {
		t.Fatal("emit on an empty ring refused")
	}
	if !l.Emit(RebuildEnd, 0, 1, 100, 12345) {
		t.Fatal("emit refused")
	}
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
	l := NewLog(64, 256)
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

// TestOverflowDroppedExact fills the ring with no reader, then checks drops
// are counted exactly and surfaced as an OverflowDropped event whose totals
// match Dropped().
func TestOverflowDroppedExact(t *testing.T) {
	l := NewLog(8, 64)
	accepted, refused := 0, 0
	for i := 0; i < 50; i++ {
		if l.Emit(ShardRebuild, 0, 1, 2, 0) {
			accepted++
		} else {
			refused++
		}
	}
	if accepted != l.RingCapacity() {
		t.Fatalf("accepted %d, want ring capacity %d", accepted, l.RingCapacity())
	}
	if got := l.Dropped(); got != uint64(refused) {
		t.Fatalf("Dropped() = %d, want %d", got, refused)
	}
	evs, _ := l.Timeline(0, 0)
	var overflow *Event
	for i := range evs {
		if evs[i].Type == OverflowDropped {
			if overflow != nil {
				t.Fatal("more than one OverflowDropped for one loss window")
			}
			overflow = &evs[i]
		}
	}
	if overflow == nil {
		t.Fatal("no OverflowDropped event synthesized")
	}
	if overflow.A != uint64(refused) || overflow.B != uint64(refused) {
		t.Fatalf("OverflowDropped payload %d/%d, want %d/%d", overflow.A, overflow.B, refused, refused)
	}
	if overflow.B != l.Dropped() {
		t.Fatalf("OverflowDropped total %d != ring counter %d", overflow.B, l.Dropped())
	}
}

// TestTimelineWindowSkip checks that a cursor older than the retained
// window skips forward instead of sticking.
func TestTimelineWindowSkip(t *testing.T) {
	l := NewLog(512, 16) // tiny retained window
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

// TestConcurrentEmitters is the satellite battery: GOMAXPROCS writers and
// one reader under -race. It asserts (1) no event is torn — each event's
// payload words are a self-consistent function of its emitter and per-
// emitter index; (2) per-emitter ordering is monotone in the timeline;
// (3) drops are counted exactly: accepted + refused == attempts and the
// timeline delivers every accepted event.
func TestConcurrentEmitters(t *testing.T) {
	writers := runtime.GOMAXPROCS(0)
	if writers < 2 {
		writers = 2
	}
	const perWriter = 2000
	l := NewLog(256, writers*perWriter+writers)

	accepted := make([]uint64, writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// One reader draining concurrently with the writers.
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
			var ok uint64
			for i := 0; i < perWriter; i++ {
				// Payload: A = writer, B = per-writer index, C = A ^ B — the
				// torn-write detector.
				a, b := uint64(w), uint64(i)
				if l.Emit(EpochSealed, w, a, b, a^b) {
					ok++
				}
			}
			accepted[w] = ok
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	var totalAccepted uint64
	for _, a := range accepted {
		totalAccepted += a
	}
	totalRefused := uint64(writers*perWriter) - totalAccepted
	if got := l.Dropped(); got != totalRefused {
		t.Fatalf("Dropped() = %d, want exactly %d refused emissions", got, totalRefused)
	}

	perWriterSeen := make([]uint64, writers)
	lastIdx := make([]int64, writers)
	for w := range lastIdx {
		lastIdx[w] = -1
	}
	var overflowTotal uint64
	for _, ev := range collected {
		if ev.Type == OverflowDropped {
			overflowTotal = ev.B
			continue
		}
		if ev.Type != EpochSealed {
			t.Fatalf("unexpected event type %v", ev.Type)
		}
		w := int(ev.A)
		if w < 0 || w >= writers || ev.C != ev.A^ev.B || int32(w) != ev.Shard {
			t.Fatalf("torn event: %+v", ev)
		}
		if int64(ev.B) <= lastIdx[w] {
			t.Fatalf("writer %d order violated: index %d after %d", w, ev.B, lastIdx[w])
		}
		lastIdx[w] = int64(ev.B)
		perWriterSeen[w]++
	}
	for w := range perWriterSeen {
		if perWriterSeen[w] != accepted[w] {
			t.Fatalf("writer %d: delivered %d, accepted %d", w, perWriterSeen[w], accepted[w])
		}
	}
	if totalRefused > 0 && overflowTotal != totalRefused {
		t.Fatalf("final OverflowDropped total %d, want %d", overflowTotal, totalRefused)
	}
	// Cursors of the collected stream are strictly increasing with no reuse.
	for i := 1; i < len(collected); i++ {
		if collected[i].Seq <= collected[i-1].Seq {
			t.Fatalf("timeline cursors not monotone at %d: %d then %d", i, collected[i-1].Seq, collected[i].Seq)
		}
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
		{Event{Seq: 5, Type: OverflowDropped, A: 5, B: 12}, []string{`"dropped":5`, `"dropped_total":12`}},
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
	l := NewLog(32, 64)
	l.Emit(RebuildStart, 0, 1, 10, 0)
	l.Emit(RebuildEnd, 0, 1, 10, 99)
	l.Emit(RebuildEnd, 0, 2, 11, 98)
	s := l.Stats()
	if s.Recorded != 3 || s.Dropped != 0 || s.NextCursor != 3 {
		t.Fatalf("stats %+v", s)
	}
	if s.ByType["rebuild_end"] != 2 || s.ByType["rebuild_start"] != 1 {
		t.Fatalf("by-type %v", s.ByType)
	}
}

// BenchmarkEmit measures the producer path (single goroutine).
func BenchmarkEmit(b *testing.B) {
	l := NewLog(1<<16, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit(EpochSealed, 0, uint64(i), 0, 0)
		if i&1023 == 0 {
			l.Timeline(^uint64(0), 0) // keep the ring drained
		}
	}
}
