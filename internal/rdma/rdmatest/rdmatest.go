// Package rdmatest is a conformance suite for rdma.QueuePair
// implementations. All three transports — memlink, tcplink and the
// kerneltcp baseline — must provide identical semantics (exactly-once,
// in-order, blocking RNR, ownership via completions), because the Data
// Roundabout runtime is written once against the interface and §V-G swaps
// the transport underneath it.
package rdmatest

import (
	"testing"
	"time"

	"cyclojoin/internal/rdma"
)

// Factory builds a connected queue-pair pair for one test. Cleanup is the
// caller's: the suite closes both ends itself.
type Factory func(t *testing.T) (a, b rdma.QueuePair)

// timeout bounds every blocking wait in the suite.
const timeout = 5 * time.Second

// Run exercises the full conformance suite against the factory.
func Run(t *testing.T, factory Factory) {
	t.Run("PingPong", func(t *testing.T) { testPingPong(t, factory) })
	t.Run("InOrderBurst", func(t *testing.T) { testInOrderBurst(t, factory) })
	t.Run("SenderBlocksUntilReceivePosted", func(t *testing.T) { testRNR(t, factory) })
	t.Run("BufferTooSmall", func(t *testing.T) { testBufferTooSmall(t, factory) })
	t.Run("PostAfterClose", func(t *testing.T) { testPostAfterClose(t, factory) })
	t.Run("CloseIdempotent", func(t *testing.T) { testCloseIdempotent(t, factory) })
	t.Run("Bidirectional", func(t *testing.T) { testBidirectional(t, factory) })
	t.Run("BatchInOrder", func(t *testing.T) { testBatchInOrder(t, factory) })
	t.Run("BatchPollCQ", func(t *testing.T) { testBatchPollCQ(t, factory) })
}

func reap(t *testing.T, qp rdma.QueuePair, want rdma.Op) rdma.Completion {
	t.Helper()
	select {
	case c, ok := <-qp.Completions():
		if !ok {
			t.Fatalf("completion queue closed while waiting for %s", want)
		}
		if c.Err != nil {
			t.Fatalf("completion error waiting for %s: %v", want, c.Err)
		}
		if c.Op != want {
			t.Fatalf("completion op = %s, want %s", c.Op, want)
		}
		return c
	case <-time.After(timeout):
		t.Fatalf("timed out waiting for %s completion", want)
	}
	panic("unreachable")
}

func register(t *testing.T, dev *rdma.Device, size int) *rdma.Buffer {
	t.Helper()
	b, err := dev.Register(size)
	if err != nil {
		t.Fatalf("Register(%d): %v", size, err)
	}
	return b
}

func fill(t *testing.T, b *rdma.Buffer, payload []byte) {
	t.Helper()
	copy(b.Data(), payload)
	if err := b.SetLen(len(payload)); err != nil {
		t.Fatal(err)
	}
}

func testPingPong(t *testing.T, factory Factory) {
	a, b := factory(t)
	defer closeBoth(a, b)
	dev := rdma.OpenDevice("test")

	rb := register(t, dev, 64)
	if err := b.PostRecv(rb); err != nil {
		t.Fatal(err)
	}
	sb := register(t, dev, 64)
	fill(t, sb, []byte("spinning join"))
	if err := a.PostSend(sb); err != nil {
		t.Fatal(err)
	}
	sc := reap(t, a, rdma.OpSend)
	if sc.Buf != sb {
		t.Error("send completion returned a different buffer")
	}
	rc := reap(t, b, rdma.OpRecv)
	if rc.Buf != rb {
		t.Error("recv completion returned a different buffer")
	}
	if got := string(rc.Buf.Bytes()); got != "spinning join" {
		t.Errorf("payload = %q", got)
	}
}

func testInOrderBurst(t *testing.T, factory Factory) {
	a, b := factory(t)
	defer closeBoth(a, b)
	dev := rdma.OpenDevice("test")

	const n = 50
	// Post all receives up front.
	for i := 0; i < n; i++ {
		if err := b.PostRecv(register(t, dev, 16)); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		for i := 0; i < n; i++ {
			sb, err := dev.Register(16)
			if err != nil {
				return
			}
			sb.Data()[0] = byte(i)
			if err := sb.SetLen(1 + i%8); err != nil {
				return
			}
			if err := a.PostSend(sb); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		rc := reap(t, b, rdma.OpRecv)
		if got := rc.Buf.Bytes()[0]; got != byte(i) {
			t.Fatalf("message %d arrived with sequence byte %d: out of order", i, got)
		}
		if rc.Buf.Len() != 1+i%8 {
			t.Fatalf("message %d length %d, want %d", i, rc.Buf.Len(), 1+i%8)
		}
	}
}

// testRNR: a message sent before any receive buffer is posted must wait,
// not vanish. This blocking is what gives the Data Roundabout its
// backpressure (§V-D).
func testRNR(t *testing.T, factory Factory) {
	a, b := factory(t)
	defer closeBoth(a, b)
	dev := rdma.OpenDevice("test")

	sb := register(t, dev, 32)
	fill(t, sb, []byte("early"))
	if err := a.PostSend(sb); err != nil {
		t.Fatal(err)
	}
	// Give the transport a moment; the message must not be dropped.
	time.Sleep(50 * time.Millisecond)
	rb := register(t, dev, 32)
	if err := b.PostRecv(rb); err != nil {
		t.Fatal(err)
	}
	rc := reap(t, b, rdma.OpRecv)
	if got := string(rc.Buf.Bytes()); got != "early" {
		t.Errorf("payload = %q", got)
	}
}

func testBufferTooSmall(t *testing.T, factory Factory) {
	a, b := factory(t)
	defer closeBoth(a, b)
	dev := rdma.OpenDevice("test")

	rb := register(t, dev, 4)
	if err := b.PostRecv(rb); err != nil {
		t.Fatal(err)
	}
	sb := register(t, dev, 64)
	fill(t, sb, []byte("this message is longer than four bytes"))
	if err := a.PostSend(sb); err != nil {
		t.Fatal(err)
	}
	select {
	case c, ok := <-b.Completions():
		if ok && c.Err == nil {
			t.Error("oversized message delivered without error")
		}
	case <-time.After(timeout):
		t.Fatal("timed out waiting for error completion")
	}
}

func testPostAfterClose(t *testing.T, factory Factory) {
	a, b := factory(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	dev := rdma.OpenDevice("test")
	buf := register(t, dev, 8)
	if err := a.PostSend(buf); err == nil {
		t.Error("PostSend after Close: want error")
	}
	//cyclolint:bufsafe both posts target a closed transport and fail; custody never leaves the test
	if err := a.PostRecv(buf); err == nil {
		t.Error("PostRecv after Close: want error")
	}
	_ = b.Close()
}

func testCloseIdempotent(t *testing.T, factory Factory) {
	a, b := factory(t)
	for i := 0; i < 3; i++ {
		if err := a.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	_ = b.Close()
	// The completion queue must eventually close.
	select {
	case _, ok := <-a.Completions():
		if ok {
			// Drain any residual completion; channel must close soon.
			for range a.Completions() {
			}
		}
	case <-time.After(timeout):
		t.Fatal("completion queue did not close")
	}
}

func testBidirectional(t *testing.T, factory Factory) {
	a, b := factory(t)
	defer closeBoth(a, b)
	dev := rdma.OpenDevice("test")

	const n = 20
	for i := 0; i < n; i++ {
		if err := a.PostRecv(register(t, dev, 16)); err != nil {
			t.Fatal(err)
		}
		if err := b.PostRecv(register(t, dev, 16)); err != nil {
			t.Fatal(err)
		}
	}
	send := func(qp rdma.QueuePair, tag byte) {
		for i := 0; i < n; i++ {
			sb, err := dev.Register(16)
			if err != nil {
				return
			}
			sb.Data()[0], sb.Data()[1] = tag, byte(i)
			if err := sb.SetLen(2); err != nil {
				return
			}
			if err := qp.PostSend(sb); err != nil {
				return
			}
		}
	}
	go send(a, 'a')
	go send(b, 'b')
	gotA, gotB := 0, 0
	deadline := time.After(timeout)
	for gotA < n || gotB < n {
		select {
		case c, ok := <-a.Completions():
			if !ok {
				t.Fatal("a's CQ closed early")
			}
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			if c.Op == rdma.OpRecv {
				if c.Buf.Bytes()[0] != 'b' || c.Buf.Bytes()[1] != byte(gotA) {
					t.Fatalf("a received %v out of order (want seq %d)", c.Buf.Bytes(), gotA)
				}
				gotA++
			}
		case c, ok := <-b.Completions():
			if !ok {
				t.Fatal("b's CQ closed early")
			}
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			if c.Op == rdma.OpRecv {
				if c.Buf.Bytes()[0] != 'a' || c.Buf.Bytes()[1] != byte(gotB) {
					t.Fatalf("b received %v out of order (want seq %d)", c.Buf.Bytes(), gotB)
				}
				gotB++
			}
		case <-deadline:
			t.Fatalf("timed out: a got %d/%d, b got %d/%d", gotA, n, gotB, n)
		}
	}
}

// testBatchInOrder checks the doorbell-batch contract (DESIGN.md §11):
// PostSendBatch(a, b, c, …) is observably identical to per-buffer posts —
// in-order arrival, one completion per buffer, ownership returning with
// each completion. The run is longer than any native batch chunk, so
// transports that split internally are exercised across the seam, and
// the kerneltcp baseline, which posts a batch buffer by buffer, is held to
// the same contract.
func testBatchInOrder(t *testing.T, factory Factory) {
	a, b := factory(t)
	defer closeBoth(a, b)
	dev := rdma.OpenDevice("test")

	const n = 40
	rbs := make([]*rdma.Buffer, n)
	for i := range rbs {
		rbs[i] = register(t, dev, 16)
	}
	if err := b.PostRecvBatch(rbs); err != nil {
		t.Fatal(err)
	}
	sbs := make([]*rdma.Buffer, n)
	for i := range sbs {
		sbs[i] = register(t, dev, 16)
		sbs[i].Data()[0] = byte(i)
		if err := sbs[i].SetLen(1 + i%8); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.PostSendBatch(sbs); err != nil {
		t.Fatal(err)
	}
	sent := make(map[*rdma.Buffer]bool, n)
	for i := 0; i < n; i++ {
		sc := reap(t, a, rdma.OpSend)
		if sent[sc.Buf] {
			t.Fatalf("send completion %d returned buffer twice", i)
		}
		sent[sc.Buf] = true
	}
	for _, sb := range sbs {
		if !sent[sb] {
			t.Fatal("a batched buffer never got a send completion")
		}
	}
	for i := 0; i < n; i++ {
		rc := reap(t, b, rdma.OpRecv)
		if got := rc.Buf.Bytes()[0]; got != byte(i) {
			t.Fatalf("batched message %d arrived with sequence byte %d: out of order", i, got)
		}
		if rc.Buf.Len() != 1+i%8 {
			t.Fatalf("batched message %d length %d, want %d", i, rc.Buf.Len(), 1+i%8)
		}
	}
}

// testBatchPollCQ checks the bulk reaper: PollCQ never blocks, drains at
// most len(dst) entries, interleaves correctly with channel receives, and
// together they deliver every completion exactly once.
func testBatchPollCQ(t *testing.T, factory Factory) {
	a, b := factory(t)
	defer closeBoth(a, b)
	dev := rdma.OpenDevice("test")

	var none [4]rdma.Completion
	if got := a.PollCQ(none[:]); got != 0 {
		t.Fatalf("PollCQ on idle queue pair = %d, want 0", got)
	}
	if got := a.PollCQ(nil); got != 0 {
		t.Fatalf("PollCQ with empty dst = %d, want 0", got)
	}

	const n = 12
	rbs := make([]*rdma.Buffer, n)
	for i := range rbs {
		rbs[i] = register(t, dev, 16)
	}
	if err := b.PostRecvBatch(rbs); err != nil {
		t.Fatal(err)
	}
	sbs := make([]*rdma.Buffer, n)
	for i := range sbs {
		sbs[i] = register(t, dev, 16)
		sbs[i].Data()[0] = byte(i)
		if err := sbs[i].SetLen(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.PostSendBatch(sbs); err != nil {
		t.Fatal(err)
	}
	// Reap the sends with the mixed discipline the ring uses: block on the
	// channel for the first completion, bulk-poll the rest of the drain.
	batch := make([]rdma.Completion, 4)
	reaped := 0
	deadline := time.After(timeout)
	for reaped < n {
		select {
		case c, ok := <-a.Completions():
			if !ok {
				t.Fatal("a's CQ closed early")
			}
			if c.Err != nil || c.Op != rdma.OpSend {
				t.Fatalf("unexpected completion %s err=%v", c.Op, c.Err)
			}
			reaped++
		case <-deadline:
			t.Fatalf("timed out: reaped %d/%d send completions", reaped, n)
		}
		m := a.PollCQ(batch)
		if m > len(batch) {
			t.Fatalf("PollCQ returned %d > len(dst) %d", m, len(batch))
		}
		for _, c := range batch[:m] {
			if c.Err != nil || c.Op != rdma.OpSend {
				t.Fatalf("unexpected polled completion %s err=%v", c.Op, c.Err)
			}
			reaped++
		}
	}
	if reaped != n {
		t.Fatalf("reaped %d send completions, want exactly %d", reaped, n)
	}
	for i := 0; i < n; i++ {
		rc := reap(t, b, rdma.OpRecv)
		if got := rc.Buf.Bytes()[0]; got != byte(i) {
			t.Fatalf("message %d arrived with sequence byte %d", i, got)
		}
	}
}

func closeBoth(a, b rdma.QueuePair) {
	_ = a.Close()
	_ = b.Close()
}
