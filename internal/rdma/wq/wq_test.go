package wq

import (
	"errors"
	"testing"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/trace"
)

// newQueue returns a queue with no mover and its own instruments.
func newQueue(t *testing.T) (*Queue, Metrics) {
	t.Helper()
	reg := metrics.NewRegistry()
	m := Metrics{
		Completions: reg.Counter("test_completions_total", "completions"),
		Rejects:     reg.Counter("test_post_rejects_total", "rejects"),
		Flushed:     reg.Counter("test_flushed_total", "flushed"),
		FlushDrops:  reg.Counter("test_flush_drops_total", "flush drops"),
		SendDepth:   reg.Gauge("test_send_queue_depth", "send depth"),
	}
	q := New(Config{Shard: trace.Flight().Shard(trace.NodeTransport, "wq-test"), MaxLen: 64, Metrics: m})
	t.Cleanup(func() { _ = q.Close() })
	return q, m
}

func registerN(t *testing.T, n int) []*rdma.Buffer {
	t.Helper()
	bufs, err := rdma.OpenDevice("wq").RegisterPool(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	return bufs
}

// drainToClose reads the CQ until it closes and counts each buffer.
func drainToClose(q *Queue) (map[*rdma.Buffer]int, []rdma.Completion) {
	seen := make(map[*rdma.Buffer]int)
	var all []rdma.Completion
	for c := range q.Completions() {
		seen[c.Buf]++
		all = append(all, c)
	}
	return seen, all
}

// TestCompleteAfterShutdownDelivers: a completion raised after shutdown
// began, while the CQ has room, is delivered — never raced against the
// done channel. A success dropped here would look undelivered to the
// sender and be re-sent by ring recovery.
func TestCompleteAfterShutdownDelivers(t *testing.T) {
	q, m := newQueue(t)
	const n = 200
	bufs := registerN(t, n)
	q.Fail(rdma.Completion{Op: rdma.OpRecv, Err: errors.New("link down")})
	for _, b := range bufs {
		q.Complete(rdma.Completion{Op: rdma.OpSend, Buf: b})
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	seen, _ := drainToClose(q)
	for i, b := range bufs {
		if seen[b] != 1 {
			t.Fatalf("completion %d raised after shutdown delivered %d times, want once (%d/%d delivered)",
				i, seen[b], len(seen)-1, n)
		}
	}
	if got := m.FlushDrops.Value(); got != 0 {
		t.Errorf("%d completions dropped with room in the CQ", got)
	}
}

// TestFailParksOnFullCQ: a fatal completion that finds the CQ full is
// parked, not dropped — it may carry the receive buffer the failed frame
// consumed — and Close's flush delivers it once the CQ has room.
func TestFailParksOnFullCQ(t *testing.T) {
	q, _ := newQueue(t)
	fills := registerN(t, rdma.CQDepth)
	for _, b := range fills {
		q.Complete(rdma.Completion{Op: rdma.OpRecv, Buf: b})
	}
	failed := registerN(t, 1)[0]
	boom := errors.New("read payload: connection reset")
	q.Fail(rdma.Completion{Op: rdma.OpRecv, Buf: failed, Err: boom})

	dst := make([]rdma.Completion, rdma.CQDepth)
	if got := q.PollCQ(dst); got != rdma.CQDepth {
		t.Fatalf("PollCQ drained %d, want the %d that filled the CQ", got, rdma.CQDepth)
	}
	for _, c := range dst {
		if c.Buf == failed {
			t.Fatal("the fatal completion was delivered into a full CQ")
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	seen, all := drainToClose(q)
	if seen[failed] != 1 {
		t.Fatalf("parked fatal completion came back %d times, want once", seen[failed])
	}
	for _, c := range all {
		if c.Buf == failed && !errors.Is(c.Err, boom) {
			t.Errorf("parked completion err = %v, want the failure it was raised with", c.Err)
		}
	}
}

// TestFailAfterShutdown: only the failure that begins shutdown is
// reported as raised. A later one — the other loop tripping over the
// closed connection — comes back only if it returns a buffer, as
// ErrFlushed.
func TestFailAfterShutdown(t *testing.T) {
	q, _ := newQueue(t)
	buf := registerN(t, 1)[0]
	first := errors.New("write batch: broken pipe")
	q.Fail(rdma.Completion{Op: rdma.OpSend, Err: first})
	q.Fail(rdma.Completion{Op: rdma.OpRecv, Err: errors.New("read header: EOF")})
	q.Fail(rdma.Completion{Op: rdma.OpRecv, Buf: buf, Err: errors.New("read payload: EOF")})
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	_, all := drainToClose(q)
	if len(all) != 2 {
		t.Fatalf("got %d completions, want the first failure and the buffer: %+v", len(all), all)
	}
	if all[0].Buf != nil || !errors.Is(all[0].Err, first) {
		t.Errorf("first completion = %+v, want the failure that began shutdown", all[0])
	}
	if all[1].Buf != buf || !errors.Is(all[1].Err, rdma.ErrFlushed) {
		t.Errorf("second completion = %+v, want the buffer as ErrFlushed", all[1])
	}
}

// TestFlushReturnsPosted: Close hands back every posted work request,
// each buffer exactly once as ErrFlushed, and a completion raised after
// the CQ closed is counted as dropped instead of panicking.
func TestFlushReturnsPosted(t *testing.T) {
	q, m := newQueue(t)
	bufs := registerN(t, 3*MaxBatch+1)
	sends, recvs := bufs[:2*MaxBatch+1], bufs[2*MaxBatch+1:]
	if err := q.PostSendBatch(sends); err != nil {
		t.Fatal(err)
	}
	for _, b := range recvs {
		if err := q.PostRecv(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.SendDepth.Value(); got != int64(len(sends)) {
		t.Errorf("send depth = %d, want %d", got, len(sends))
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	seen, all := drainToClose(q)
	for _, c := range all {
		if !errors.Is(c.Err, rdma.ErrFlushed) {
			t.Errorf("flushed %s completion err = %v, want ErrFlushed", c.Op, c.Err)
		}
	}
	for i, b := range bufs {
		if seen[b] != 1 {
			t.Errorf("posted buffer %d came back %d times, want once", i, seen[b])
		}
	}
	if got := m.SendDepth.Value(); got != 0 {
		t.Errorf("send depth after flush = %d, want 0", got)
	}
	q.Complete(rdma.Completion{Op: rdma.OpRecv, Buf: bufs[0]})
	if got := m.FlushDrops.Value(); got != 1 {
		t.Errorf("flush drops = %d after a completion into the closed CQ, want 1", got)
	}
	if err := q.PostSend(bufs[0]); !errors.Is(err, rdma.ErrClosed) {
		t.Errorf("PostSend after Close = %v, want ErrClosed", err)
	}
}

// TestPostSendPrefixAtomic: a run with a buffer over the length limit
// posts the buffers before it, refuses the rest, and names the index.
func TestPostSendPrefixAtomic(t *testing.T) {
	q, m := newQueue(t)
	bufs, err := rdma.OpenDevice("wq").RegisterPool(MaxBatch+3, 128)
	if err != nil {
		t.Fatal(err)
	}
	const bad = MaxBatch + 1
	for i, b := range bufs {
		n := 8
		if i == bad {
			n = 65
		}
		if err := b.SetLen(n); err != nil {
			t.Fatal(err)
		}
	}
	err = q.PostSendBatch(bufs)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("PostSendBatch = %v, want ErrTooLarge", err)
	}
	if got := m.Rejects.Value(); got != 1 {
		t.Errorf("rejects = %d, want 1", got)
	}
	var wr WR
	var got []*rdma.Buffer
	for len(got) < bad && q.NextSend(&wr) {
		got = append(got, wr.Bufs()...)
	}
	if len(got) != bad {
		t.Fatalf("posted %d buffers, want the %d before the refused one", len(got), bad)
	}
	for i, b := range got {
		if b != bufs[i] {
			t.Fatalf("posted buffer %d out of order", i)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if seen, _ := drainToClose(q); len(seen) != 0 {
		t.Errorf("refused or dequeued buffers came back through flush: %d", len(seen))
	}
}
