package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRecorderSpanPairingConcurrent proves the sharded design never loses
// span pairing under parallel producers: every producer hammers its own
// shard, and afterwards every retained span is a completed pair (Dur >= 1)
// with the producer's own correlation key, retained counts are exact, and
// overflow shows up in Dropped rather than as corruption. Run with -race.
func TestRecorderSpanPairingConcurrent(t *testing.T) {
	const (
		producers = 8
		perProd   = 1000
		shardCap  = 512
	)
	rec := NewRecorder(shardCap)
	shards := make([]*Shard, producers)
	for i := range shards {
		shards[i] = rec.Shard(i, fmt.Sprintf("prod/%d", i))
	}
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *Shard) {
			defer wg.Done()
			for k := 0; k < perProd; k++ {
				pd := s.Begin(PhaseJoin)
				pd.Frag = int32(i)
				pd.Hop = int32(k)
				pd.Arg = int64(k)
				s.End(pd)
			}
		}(i, s)
	}
	wg.Wait()

	spans := rec.Snapshot()
	if got, want := len(spans), producers*shardCap; got != want {
		t.Fatalf("retained %d spans, want %d", got, want)
	}
	if got, want := rec.Dropped(), int64(producers*(perProd-shardCap)); got != want {
		t.Fatalf("dropped %d spans, want %d", got, want)
	}
	perTrack := make(map[int32]int)
	lastStart := make(map[int32]int64)
	lastHop := make(map[int32]int32)
	for _, sp := range spans {
		if sp.Dur < 1 {
			t.Fatalf("span %+v has no duration: begin/end pairing lost", sp)
		}
		if sp.Phase != PhaseJoin {
			t.Fatalf("span %+v has wrong phase", sp)
		}
		if int32(sp.Node) != sp.Frag {
			t.Fatalf("span %+v: correlation key crossed shards (node %d, frag %d)", sp, sp.Node, sp.Frag)
		}
		if prev, ok := lastStart[sp.Track]; ok && sp.Start < prev {
			t.Fatalf("track %d spans out of order: %d after %d", sp.Track, sp.Start, prev)
		}
		if prev, ok := lastHop[sp.Track]; ok && sp.Hop != prev+1 {
			t.Fatalf("track %d lost spans inside the retained window: hop %d after %d", sp.Track, sp.Hop, prev)
		}
		lastStart[sp.Track] = sp.Start
		lastHop[sp.Track] = sp.Hop
		perTrack[sp.Track]++
	}
	for tr, n := range perTrack {
		if n != shardCap {
			t.Fatalf("track %d retained %d spans, want %d", tr, n, shardCap)
		}
	}
}

// TestRecorderDisabledIsInert: before Enable, shards are the shared no-op
// shard and record nothing; shards created after Enable are live.
func TestRecorderDisabledIsInert(t *testing.T) {
	rec := &Recorder{}
	s := rec.Shard(0, "early")
	pd := s.Begin(PhaseJoin)
	if pd.Active() {
		t.Fatal("pending from a disabled recorder is active")
	}
	s.End(pd)
	s.Point(PhaseRetire, 0, 0, 0)
	if n := len(rec.Snapshot()); n != 0 {
		t.Fatalf("disabled recorder retained %d spans", n)
	}
	rec.Enable(16)
	// The pre-Enable shard stays inert by contract...
	s.Point(PhaseRetire, 0, 0, 0)
	if n := len(rec.Snapshot()); n != 0 {
		t.Fatalf("inert shard recorded %d spans after Enable", n)
	}
	// ...but new shards record.
	live := rec.Shard(0, "late")
	if !live.Enabled() {
		t.Fatal("post-Enable shard not enabled")
	}
	pd = live.Begin(PhaseJoin)
	if !pd.Active() {
		t.Fatal("pending from an enabled recorder is inactive")
	}
	live.End(pd)
	if n := len(rec.Snapshot()); n != 1 {
		t.Fatalf("retained %d spans, want 1", n)
	}
}

// TestRecorderOverwriteOldest: a full shard drops its oldest spans, keeps
// the newest, and counts the loss.
func TestRecorderOverwriteOldest(t *testing.T) {
	rec := NewRecorder(4)
	s := rec.Shard(2, "x")
	for k := 0; k < 10; k++ {
		s.Point(PhaseRetire, int32(k), 0, 0)
	}
	spans := rec.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := int32(6 + i); sp.Frag != want {
			t.Fatalf("span %d is frag %d, want %d (oldest-drop violated)", i, sp.Frag, want)
		}
	}
	if d := s.Dropped(); d != 6 {
		t.Fatalf("dropped %d, want 6", d)
	}
	rec.Reset()
	if n := len(rec.Snapshot()); n != 0 {
		t.Fatalf("reset left %d spans", n)
	}
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("reset left dropped=%d", d)
	}
}

// TestNextTilesTrack: Next ends one span at the clock read that starts
// the next, so a chain of them covers its track with no gap; on an inert
// pending it is a plain Begin.
func TestNextTilesTrack(t *testing.T) {
	rec := NewRecorder(16)
	s := rec.Shard(0, "join")
	// The sleeps keep each span longer than the clock's resolution, so
	// none is clamped to its 1 ns minimum.
	pd := s.Begin(PhaseWait)
	time.Sleep(time.Microsecond)
	pd = s.Next(pd, PhaseJoin)
	time.Sleep(time.Microsecond)
	pd = s.Next(pd, PhaseStage)
	time.Sleep(time.Microsecond)
	s.End(pd)
	spans := rec.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	for i, want := range []Phase{PhaseWait, PhaseJoin, PhaseStage} {
		if spans[i].Phase != want {
			t.Fatalf("span %d is %v, want %v", i, spans[i].Phase, want)
		}
		if i > 0 && spans[i].Start != spans[i-1].End() {
			t.Errorf("span %d starts at %d, its predecessor ends at %d", i, spans[i].Start, spans[i-1].End())
		}
	}
	if pd := s.Next(Pending{}, PhaseJoin); !pd.Active() {
		t.Error("Next on an inert pending of an enabled shard opened no span")
	}
	if pd := nopShard.Next(Pending{}, PhaseJoin); pd.Active() {
		t.Error("Next on a disabled shard opened a span")
	}
}

// TestSpanHotPathZeroAlloc is the allocation guard the tier-1 gate runs:
// recording a begin/end pair or an instant with tracing ENABLED must not
// allocate (the benchmark BenchmarkSpanBeginEnd enforces the same bound).
func TestSpanHotPathZeroAlloc(t *testing.T) {
	rec := NewRecorder(1024)
	s := rec.Shard(0, "hot")
	if allocs := testing.AllocsPerRun(1000, func() {
		pd := s.Begin(PhaseJoin)
		pd.Frag, pd.Hop, pd.Arg = 7, 3, 4096
		s.End(pd)
	}); allocs != 0 {
		t.Fatalf("enabled begin/end allocates %.1f times per span, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Point(PhaseRetire, 7, 4, 0)
	}); allocs != 0 {
		t.Fatalf("enabled point allocates %.1f times per event, want 0", allocs)
	}
	off := Flight().Shard(0, "off") // global recorder: disabled unless a test enabled it
	if allocs := testing.AllocsPerRun(1000, func() {
		pd := off.Begin(PhaseJoin)
		off.End(pd)
	}); allocs != 0 {
		t.Fatalf("disabled begin/end allocates %.1f times per span, want 0", allocs)
	}
}

// BenchmarkSpanBeginEnd measures the enabled hot path and fails if it
// ever allocates — the flight-recorder analogue of BenchmarkForwardStage.
func BenchmarkSpanBeginEnd(b *testing.B) {
	rec := NewRecorder(4096)
	s := rec.Shard(0, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pd := s.Begin(PhaseJoin)
		pd.Frag, pd.Hop, pd.Arg = 1, 2, 3
		s.End(pd)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(1000, func() {
		pd := s.Begin(PhaseJoin)
		s.End(pd)
	}); allocs != 0 {
		b.Fatalf("span hot path allocates %.1f times per event, want 0", allocs)
	}
}

// BenchmarkSpanDisabled measures the disabled cost: one atomic load.
func BenchmarkSpanDisabled(b *testing.B) {
	rec := &Recorder{}
	s := rec.Shard(0, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pd := s.Begin(PhaseJoin)
		s.End(pd)
	}
}

// BenchmarkPoint measures the instant-event path.
func BenchmarkPoint(b *testing.B) {
	rec := NewRecorder(4096)
	s := rec.Shard(0, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Point(PhaseRetire, 1, 2, 3)
	}
}
