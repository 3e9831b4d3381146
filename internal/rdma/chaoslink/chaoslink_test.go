package chaoslink

import (
	"errors"
	"testing"
	"time"

	"cyclojoin/internal/rdma"
	"cyclojoin/internal/rdma/memlink"
	"cyclojoin/internal/rdma/rdmatest"
	"cyclojoin/internal/testutil"
)

// wrappedPair builds a memlink pair with the scenario in front of the
// sending side and registers cleanup for both ends.
func wrappedPair(t *testing.T, sc Scenario) (rdma.QueuePair, rdma.QueuePair) {
	t.Helper()
	a, b := memlink.Pair()
	src := Wrap(a, Link{From: 0, To: 1}, sc)
	t.Cleanup(func() {
		_ = src.Close()
		_ = b.Close()
	})
	return src, b
}

func bufs(t *testing.T, count, size int) []*rdma.Buffer {
	t.Helper()
	pool, err := rdma.OpenDevice("chaos-test").RegisterPool(count, size)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestConformancePassThrough: an inactive scenario must be invisible — the
// wrapped link honors the full queue-pair contract.
func TestConformancePassThrough(t *testing.T) {
	rdmatest.Run(t, func(t *testing.T) (rdma.QueuePair, rdma.QueuePair) {
		a, b := memlink.Pair()
		return Wrap(a, Link{From: 0, To: 1}, Scenario{}), b
	})
}

// TestConformanceJittered: delay and jitter must preserve every
// queue-pair guarantee, in-order delivery included — the hold queue is
// FIFO regardless of due times.
func TestConformanceJittered(t *testing.T) {
	rdmatest.Run(t, func(t *testing.T) (rdma.QueuePair, rdma.QueuePair) {
		a, b := memlink.Pair()
		sc := Scenario{Seed: 1, Delay: 200 * time.Microsecond, Jitter: 300 * time.Microsecond}
		return Wrap(a, Link{From: 0, To: 1}, sc), b
	})
}

// TestFailFrameDropsExactly: frame FailFrame-1 is delivered, frame
// FailFrame comes back as an error completion carrying its buffer, and
// every later post is refused inline.
func TestFailFrameDropsExactly(t *testing.T) {
	testutil.CheckNoLeaks(t)
	src, dst := wrappedPair(t, Scenario{FailFrame: 2})
	p := bufs(t, 4, 64)

	if err := dst.PostRecv(p[0]); err != nil {
		t.Fatal(err)
	}
	copy(p[1].Data(), "ok")
	if err := p[1].SetLen(2); err != nil {
		t.Fatal(err)
	}
	if err := src.PostSend(p[1]); err != nil {
		t.Fatal(err)
	}
	waitCompletion(t, dst, func(c rdma.Completion) bool {
		return c.Op == rdma.OpRecv && c.Err == nil && c.Buf == p[0]
	}, "first frame delivered")

	copy(p[2].Data(), "dropped")
	if err := p[2].SetLen(7); err != nil {
		t.Fatal(err)
	}
	rejected := mRejects.Value()
	if err := src.PostSend(p[2]); err != nil {
		t.Fatalf("the dropped frame's post must succeed (the fault arrives as a completion): %v", err)
	}
	waitCompletion(t, src, func(c rdma.Completion) bool {
		return c.Err != nil && errors.Is(c.Err, ErrInjected) && c.Buf == p[2]
	}, "injected error completion for the dropped frame")

	if err := src.PostSend(p[3]); !errors.Is(err, ErrInjected) {
		t.Fatalf("post after link failure = %v, want ErrInjected", err)
	}
	if got := mRejects.Value() - rejected; got < 1 {
		t.Errorf("chaoslink_rejected_posts_total delta = %d, want >= 1", got)
	}
}

// TestDropDeterminism: two fresh links with identical scenarios fail on
// the same frame ordinal — a recorded seed replays the same schedule.
func TestDropDeterminism(t *testing.T) {
	testutil.CheckNoLeaks(t)
	ordinal := func() int {
		src, _ := wrappedPair(t, Scenario{Seed: 99, DropProb: 0.2})
		p := bufs(t, 64, 16)
		for i, b := range p {
			if err := b.SetLen(1); err != nil {
				t.Fatal(err)
			}
			if err := src.PostSend(b); err != nil {
				return i // i accepted posts before this rejection; drop was ordinal i
			}
		}
		t.Fatal("no drop within 64 frames at DropProb 0.2")
		return -1
	}
	first, second := ordinal(), ordinal()
	if first != second {
		t.Fatalf("same seed produced different drop ordinals: %d vs %d", first, second)
	}
}

// TestDelayHoldsFrames: a frame spends at least Delay in the hold queue
// before it reaches the receiver.
func TestDelayHoldsFrames(t *testing.T) {
	testutil.CheckNoLeaks(t)
	const delay = 30 * time.Millisecond
	src, dst := wrappedPair(t, Scenario{Delay: delay})
	p := bufs(t, 2, 16)

	if err := dst.PostRecv(p[0]); err != nil {
		t.Fatal(err)
	}
	if err := p[1].SetLen(1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := src.PostSend(p[1]); err != nil {
		t.Fatal(err)
	}
	waitCompletion(t, dst, func(c rdma.Completion) bool {
		return c.Op == rdma.OpRecv && c.Err == nil
	}, "delayed frame")
	if held := time.Since(start); held < delay-5*time.Millisecond {
		t.Errorf("frame arrived after %v, want >= %v", held, delay)
	}
}

// TestPaceSpacesFrames: consecutive releases are at least Pace apart, so a
// burst of three frames takes two pace intervals end to end.
func TestPaceSpacesFrames(t *testing.T) {
	testutil.CheckNoLeaks(t)
	const pace = 15 * time.Millisecond
	src, dst := wrappedPair(t, Scenario{Pace: pace})
	p := bufs(t, 6, 16)

	for i := 0; i < 3; i++ {
		if err := dst.PostRecv(p[i]); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for i := 3; i < 6; i++ {
		if err := p[i].SetLen(1); err != nil {
			t.Fatal(err)
		}
		if err := src.PostSend(p[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		waitCompletion(t, dst, func(c rdma.Completion) bool {
			return c.Op == rdma.OpRecv && c.Err == nil
		}, "paced frame")
	}
	if elapsed := time.Since(start); elapsed < 2*pace-5*time.Millisecond {
		t.Errorf("three paced frames arrived in %v, want >= %v", elapsed, 2*pace)
	}
}

// TestCloseFlushesHeldFrames: buffers parked in the hold queue at Close
// must still return through the CQ — the wrapper accepted the posts, so
// the flush contract is its to keep.
func TestCloseFlushesHeldFrames(t *testing.T) {
	testutil.CheckNoLeaks(t)
	a, b := memlink.Pair()
	src := Wrap(a, Link{From: 0, To: 1}, Scenario{Delay: time.Hour})
	defer func() { _ = b.Close() }()
	p := bufs(t, 2, 16)
	for _, buf := range p {
		if err := buf.SetLen(1); err != nil {
			t.Fatal(err)
		}
		if err := src.PostSend(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	flushed := map[*rdma.Buffer]bool{}
	for c := range src.Completions() {
		if errors.Is(c.Err, rdma.ErrFlushed) {
			flushed[c.Buf] = true
		}
	}
	for _, buf := range p {
		if !flushed[buf] {
			t.Errorf("held buffer did not flush through the CQ on Close")
		}
	}
}

// TestPlanTakeSchedules exercises the dial bookkeeping: fault windows,
// partitions, derived per-dial seeds, clean links.
func TestPlanTakeSchedules(t *testing.T) {
	l := Link{From: 0, To: 1}

	t.Run("default one faulty dial", func(t *testing.T) {
		p := &Plan{PerLink: map[Link]*Scenario{l: {FailFrame: 1}}}
		if sc, dial := p.take(l); sc == nil || dial != 1 {
			t.Fatalf("first dial = (%v, %d), want faulty dial 1", sc, dial)
		}
		if sc, _ := p.take(l); sc != nil {
			t.Fatalf("second dial still faulty: %+v", sc)
		}
		if got := p.Dials(l); got != 2 {
			t.Fatalf("Dials = %d, want 2 (clean re-dials still count)", got)
		}
	})

	t.Run("fault window", func(t *testing.T) {
		p := &Plan{PerLink: map[Link]*Scenario{l: {FailFrame: 1}}, FaultDials: 2}
		for dial := 1; dial <= 2; dial++ {
			if sc, _ := p.take(l); sc == nil {
				t.Fatalf("dial %d came up clean inside the fault window", dial)
			}
		}
		if sc, _ := p.take(l); sc != nil {
			t.Fatal("dial 3 still faulty outside the fault window")
		}
	})

	t.Run("forever faulty", func(t *testing.T) {
		p := &Plan{PerLink: map[Link]*Scenario{l: {FailFrame: 1}}, FaultDials: -1}
		var seeds []uint64
		for dial := 1; dial <= 3; dial++ {
			sc, _ := p.take(l)
			if sc == nil {
				t.Fatalf("dial %d came up clean with FaultDials < 0", dial)
			}
			seeds = append(seeds, sc.Seed)
		}
		if seeds[0] == seeds[1] || seeds[1] == seeds[2] {
			t.Fatalf("re-dials replayed the same seed: %v", seeds)
		}
	})

	t.Run("partition keeps its scenario", func(t *testing.T) {
		p := &Plan{PerLink: map[Link]*Scenario{l: {FailFrame: 1, RefuseRedials: true}}}
		p.take(l)
		if sc, dial := p.take(l); sc == nil || !sc.RefuseRedials || dial != 2 {
			t.Fatalf("re-dial of a partitioned link = (%+v, %d)", sc, dial)
		}
	})

	t.Run("clean link", func(t *testing.T) {
		p := &Plan{PerLink: map[Link]*Scenario{l: {FailFrame: 1}}}
		other := Link{From: 1, To: 2}
		if sc, _ := p.take(other); sc != nil {
			t.Fatalf("unscheduled link got a scenario: %+v", sc)
		}
		if got := p.Dials(other); got != 0 {
			t.Fatalf("clean links must not be dial-counted, got %d", got)
		}
	})
}

// TestPlanWrapFactory: clean links pass through the inner factory
// untouched; faulty links get a wrapper; partitioned re-dials are refused.
func TestPlanWrapFactory(t *testing.T) {
	testutil.CheckNoLeaks(t)
	var lastSrc rdma.QueuePair
	inner := func(from, to int) (rdma.QueuePair, rdma.QueuePair, error) {
		a, b := memlink.Pair()
		lastSrc = a
		t.Cleanup(func() {
			_ = a.Close()
			_ = b.Close()
		})
		return a, b, nil
	}
	faulty := Link{From: 0, To: 1}
	plan := &Plan{PerLink: map[Link]*Scenario{faulty: {FailFrame: 1, RefuseRedials: true}}}
	factory := plan.Wrap(inner)

	src, _, err := factory(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if src != lastSrc {
		t.Error("clean link did not pass through the inner factory untouched")
	}
	src, _, err = factory(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if src == lastSrc {
		t.Error("faulty link was not wrapped")
	}
	t.Cleanup(func() { _ = src.Close() })

	if _, _, err := factory(0, 1); !errors.Is(err, ErrPartitioned) {
		t.Errorf("re-dial of partitioned link = %v, want ErrPartitioned", err)
	}
	if got := plan.Dials(faulty); got != 2 {
		t.Errorf("Dials = %d, want 2", got)
	}
}

// waitCompletion drains qp's CQ until pred matches, failing the test on
// close or timeout.
func waitCompletion(t *testing.T, qp rdma.QueuePair, pred func(rdma.Completion) bool, what string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case c, ok := <-qp.Completions():
			if !ok {
				t.Fatalf("CQ closed while waiting for %s", what)
			}
			if pred(c) {
				return
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
