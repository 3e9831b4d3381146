// Package wq is the verbs half every queue-pair transport shares: the
// send work queue of doorbell batches, the receive queue with its
// residency stamps, the completion queue, and the shutdown that hands
// every still-posted work request back before the completion queue
// closes (DESIGN.md §11).
//
// A transport embeds a *Queue, which then implements rdma.QueuePair, and
// supplies only its data mover: the loops that take send work requests
// (NextSend) and receive buffers (Recvs) from the Queue and raise their
// completions through it (Sent, Complete, Abort, Fail). memlink's DMA
// goroutine, tcplink's framing loops and kerneltcp's staging loops are
// such movers.
package wq

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/trace"
)

// depth bounds the posted work requests per direction: send work
// requests on the send queue, buffers on the receive queue. rdma.CQDepth
// holds one completion per slot of both, so Close can flush a queue of
// single-buffer sends into an unreaped CQ.
const depth = 256

// MaxBatch bounds how many sends ride in one work request; longer batches
// split into several. The bound keeps the buffers in a fixed array inside
// the WR, so the caller's slice is copied out at post time (the caller may
// reuse its scratch at once) with no per-batch heap allocation, and lets
// movers size their frame-assembly scratch statically.
const MaxBatch = 16

// ErrTooLarge is returned by a send post whose payload exceeds the
// queue's length limit. Nothing of the refused buffer is posted.
var ErrTooLarge = errors.New("rdma: payload exceeds the maximum message size")

// WR is one send work request: a doorbell-batched run of one to MaxBatch
// buffers. It moves by value through the send queue; the array is inline
// (not a slice) so a copy cannot dangle.
type WR struct {
	n    int
	bufs [MaxBatch]*rdma.Buffer
	// pend is the flight-recorder span opened at post time and closed
	// before the request's last send completion: the WR post→completion
	// latency the paper's §III-B pipelining argument turns on. One span
	// covers the whole run — the doorbell is the unit being measured.
	pend trace.Pending
}

// Bufs returns the request's buffers in posting order.
func (w *WR) Bufs() []*rdma.Buffer { return w.bufs[:w.n] }

// Metrics are a transport's queue instruments, registered under the
// transport's own names. A transport that exports none leaves them nil,
// and its queue counts nothing.
type Metrics struct {
	// Completions counts completions delivered to the application.
	Completions *metrics.Counter
	// Rejects counts send posts refused by the length limit.
	Rejects *metrics.Counter
	// Flushed counts completions Close delivered for work requests still
	// posted at shutdown (and parked failures).
	Flushed *metrics.Counter
	// FlushDrops counts completions that found the CQ full or closed
	// during teardown and were lost.
	FlushDrops *metrics.Counter
	// SendDepth is the number of posted send buffers not yet taken by the
	// data mover.
	SendDepth *metrics.Gauge
}

// Config is what a transport hands the Queue at construction.
type Config struct {
	// Shard records the work-request spans.
	Shard *trace.Shard
	// MaxLen is the largest payload a send may carry.
	MaxLen int
	// Stop is closed when shutdown begins, to unblock the mover's loops
	// (a connection); nil when the done channel alone reaches them.
	Stop io.Closer
	// Metrics are the transport's queue instruments.
	Metrics Metrics
}

// Queue is the verbs half of a queue pair.
type Queue struct {
	shard  *trace.Shard
	maxLen int
	stop   io.Closer
	m      Metrics

	sendQ chan WR
	recvQ chan *rdma.Buffer
	cq    chan rdma.Completion

	// recvPend holds the open WRRecv span per posted receive buffer
	// (guarded by mu): posted→filled is the buffer's residency time.
	mu       sync.Mutex
	recvPend map[*rdma.Buffer]trace.Pending

	// cqMu guards cq against close: memlink's peer delivers here from
	// its own goroutine, which outlives this side's Close.
	cqMu     sync.RWMutex
	cqClosed bool

	// parked holds completions that found the CQ full after shutdown
	// began (guarded by parkMu). They may carry a buffer, so they are
	// kept for Close's flush instead of dropped.
	parkMu sync.Mutex
	parked []rdma.Completion

	// Loops counts the data mover's goroutines: the transport adds each
	// loop before launching it and the loop marks itself done on exit.
	// Close waits for them after shutdown, before it flushes.
	Loops sync.WaitGroup

	stopped   atomic.Bool
	closeOnce sync.Once
	done      chan struct{}
}

var _ rdma.QueuePair = (*Queue)(nil)

// New returns a running queue; the transport then launches its loops
// (see Loops).
func New(cfg Config) *Queue {
	return &Queue{
		shard:    cfg.Shard,
		maxLen:   cfg.MaxLen,
		stop:     cfg.Stop,
		m:        cfg.Metrics,
		sendQ:    make(chan WR, depth),
		recvQ:    make(chan *rdma.Buffer, depth),
		cq:       make(chan rdma.Completion, rdma.CQDepth),
		recvPend: make(map[*rdma.Buffer]trace.Pending),
		done:     make(chan struct{}),
	}
}

// Shard is the flight-recorder shard the queue records its work-request
// spans on; a mover records its own spans there too.
func (q *Queue) Shard() *trace.Shard { return q.shard }

// Done is closed when shutdown begins: on Close, or on the first Fail.
func (q *Queue) Done() <-chan struct{} { return q.done }

// Recvs is the receive queue: the mover takes the next posted buffer
// from it, in posting order.
func (q *Queue) Recvs() <-chan *rdma.Buffer { return q.recvQ }

// PostSend implements rdma.QueuePair: a batch of one.
//
//cyclolint:hotpath
func (q *Queue) PostSend(b *rdma.Buffer) error {
	bufs := [1]*rdma.Buffer{b}
	_, err := q.postSends(bufs[:])
	return err
}

// PostSendBatch implements rdma.QueuePair: the run crosses to the mover
// in one queue hand-off (one doorbell) per MaxBatch buffers.
//
//cyclolint:hotpath
func (q *Queue) PostSendBatch(bufs []*rdma.Buffer) error {
	if i, err := q.postSends(bufs); err != nil {
		//cyclolint:coldpath refused post: the caller handles the error off the fast path
		return fmt.Errorf("rdma: batch send %d/%d: %w", i, len(bufs), err)
	}
	return nil
}

// postSends posts bufs as work requests. Prefix-atomic: it returns how
// many buffers it posted and, when that is not all, why the next one was
// refused. The length limit is checked for the whole run first, so a
// refused buffer poisons nothing before it.
//
//cyclolint:hotpath
func (q *Queue) postSends(bufs []*rdma.Buffer) (int, error) {
	post := len(bufs)
	var err error
	for i, b := range bufs {
		if b.Len() > q.maxLen {
			count(q.m.Rejects)
			//cyclolint:coldpath refused post: the caller handles the error off the fast path
			post, err = i, fmt.Errorf("%w: payload %d B, limit %d B", ErrTooLarge, b.Len(), q.maxLen)
			break
		}
	}
	for off := 0; off < post; off += MaxBatch {
		// Check shutdown first: with a closed done channel and free queue
		// space, a bare select would choose nondeterministically.
		select {
		case <-q.done:
			return off, rdma.ErrClosed
		default:
		}
		wr := WR{n: min(post-off, MaxBatch)}
		copy(wr.bufs[:wr.n], bufs[off:])
		level(q.m.SendDepth, int64(wr.n))
		wr.pend = q.shard.Begin(trace.PhaseWRSend)
		// Fast path: the work queue usually has room, and one
		// non-blocking send beats arming the two-way select.
		select {
		case q.sendQ <- wr:
			continue
		default:
		}
		select {
		case <-q.done:
			q.shard.End(wr.pend)
			level(q.m.SendDepth, -int64(wr.n))
			return off, rdma.ErrClosed
		case q.sendQ <- wr:
		}
	}
	return post, err
}

// PostRecv implements rdma.QueuePair: the buffer joins the receive
// queue, which the mover takes from in posting order.
//
//cyclolint:hotpath
func (q *Queue) PostRecv(b *rdma.Buffer) error {
	// Check shutdown first, as postSends does.
	select {
	case <-q.done:
		return rdma.ErrClosed
	default:
	}
	// Stamp the residency span BEFORE the buffer becomes visible to the
	// mover: once enqueued, FinishRecv may run at once.
	q.stampRecv(b)
	select {
	case q.recvQ <- b:
		return nil
	default:
	}
	select {
	case <-q.done:
		q.dropStamp(b)
		return rdma.ErrClosed
	case q.recvQ <- b:
		return nil
	}
}

// NextSend waits for the next posted send work request and moves it into
// wr. False means shutdown has begun and the mover should return:
// shutdown wins over queued work, which Close flushes.
//
//cyclolint:hotpath
func (q *Queue) NextSend(wr *WR) bool {
	select {
	case <-q.done:
		return false
	default:
	}
	// Fast path: drain already-posted work with a non-blocking receive;
	// the two-way select is the slow path.
	select {
	case *wr = <-q.sendQ:
	default:
		select {
		case <-q.done:
			return false
		case *wr = <-q.sendQ:
		}
	}
	level(q.m.SendDepth, -int64(wr.n))
	return true
}

// Sent raises the send completion of wr's buffer i: err is nil for a
// buffer that went out, or the per-request error of one refused while the
// link stays up. Before the last buffer's completion, wr's span ends over
// the placed bytes: publishing the completion is the request's last act,
// so a reaper that has read it finds the span in any later snapshot.
//
//cyclolint:hotpath
func (q *Queue) Sent(wr *WR, i, placed int, err error) {
	if i == wr.n-1 {
		q.endSend(wr, placed)
	}
	q.Complete(rdma.Completion{Op: rdma.OpSend, Buf: wr.bufs[i], Err: err})
}

// Abort fails the queue at wr's buffer i: wr's span ends over the placed
// bytes, buffer i fails with err (see Fail), and the buffers after it
// come back as ErrFlushed. A dequeued request is invisible to Close's
// flush, so the mover hands it back here.
func (q *Queue) Abort(wr *WR, i, placed int, err error) {
	q.endSend(wr, placed)
	q.Fail(rdma.Completion{Op: rdma.OpSend, Buf: wr.bufs[i], Err: err})
	for _, b := range wr.bufs[i+1 : wr.n] {
		q.Complete(rdma.Completion{Op: rdma.OpSend, Buf: b, Err: rdma.ErrFlushed})
	}
}

// endSend closes wr's span over the bytes it placed.
//
//cyclolint:hotpath
func (q *Queue) endSend(wr *WR, placed int) {
	wr.pend.Arg = int64(placed)
	wr.pend.Aux = int64(len(q.cq))
	q.shard.End(wr.pend)
}

// stampRecv opens the WRRecv residency span for a buffer about to be
// posted.
//
//cyclolint:hotpath
func (q *Queue) stampRecv(b *rdma.Buffer) {
	if !q.shard.Enabled() {
		return
	}
	pd := q.shard.Begin(trace.PhaseWRRecv)
	q.mu.Lock()
	q.recvPend[b] = pd
	q.mu.Unlock()
}

// dropStamp abandons the stamp of a buffer whose post failed or that
// was flushed.
//
//cyclolint:hotpath
func (q *Queue) dropStamp(b *rdma.Buffer) {
	if !q.shard.Enabled() {
		return
	}
	q.mu.Lock()
	delete(q.recvPend, b)
	q.mu.Unlock()
}

// FinishRecv closes b's WRRecv span when n bytes land in it. memlink
// calls it from the peer's goroutine, hence the lock.
//
//cyclolint:hotpath
func (q *Queue) FinishRecv(b *rdma.Buffer, n int) {
	if !q.shard.Enabled() {
		return
	}
	q.mu.Lock()
	pd, ok := q.recvPend[b]
	delete(q.recvPend, b)
	q.mu.Unlock()
	if !ok {
		return
	}
	pd.Arg = int64(n)
	pd.Aux = int64(len(q.cq))
	q.shard.End(pd)
}

// Complete delivers one completion to the CQ. It blocks while the CQ is
// full and the queue is up, and always delivers while there is room:
// a frame already placed in the peer's buffer whose success completion
// were dropped would look undelivered to the sender and be re-sent by
// ring recovery — a duplicate. Only a CQ still full after shutdown
// began parks the completion for Close's flush. A completion that
// arrives after the CQ closed (memlink's peer delivering into a closed
// link) is counted as dropped.
//
//cyclolint:hotpath
func (q *Queue) Complete(c rdma.Completion) {
	q.cqMu.RLock()
	defer q.cqMu.RUnlock()
	if q.cqClosed {
		count(q.m.FlushDrops)
		return
	}
	select {
	case q.cq <- c:
	default:
		select {
		case q.cq <- c:
		case <-q.done:
			q.park(c)
			return
		}
	}
	count(q.m.Completions)
}

// park keeps a completion that found the CQ full during teardown for
// Close's flush.
func (q *Queue) park(c rdma.Completion) {
	q.parkMu.Lock()
	q.parked = append(q.parked, c)
	q.parkMu.Unlock()
}

// Fail reports a fatal transport error and shuts the queue down. The
// failure that begins shutdown is delivered as raised. A later one — the
// other loop tripping over the closed connection, or a loop cut off by
// Close — is delivered only if it returns a buffer, and then as
// ErrFlushed: that buffer was flushed by the shutdown, not lost to a
// fault of its own.
func (q *Queue) Fail(c rdma.Completion) {
	if !q.shutdown() {
		if c.Buf == nil {
			return
		}
		c.Err = rdma.ErrFlushed
	}
	q.Complete(c)
}

// shutdown closes done and the transport's Stop once, and reports
// whether this call did so.
func (q *Queue) shutdown() bool {
	if !q.stopped.CompareAndSwap(false, true) {
		return false
	}
	close(q.done)
	if q.stop != nil {
		_ = q.stop.Close()
	}
	return true
}

// Completions implements rdma.QueuePair.
func (q *Queue) Completions() <-chan rdma.Completion { return q.cq }

// PollCQ implements rdma.QueuePair: a non-blocking drain of the
// completion channel. A closed CQ reads as empty.
//
//cyclolint:hotpath
func (q *Queue) PollCQ(dst []rdma.Completion) int {
	n := 0
	for n < len(dst) {
		select {
		case c, ok := <-q.cq:
			if !ok {
				return n
			}
			dst[n] = c
			n++
		default:
			return n
		}
	}
	return n
}

// Close implements rdma.QueuePair: it shuts the queue down, waits for
// the mover's loops, flushes and closes the CQ.
func (q *Queue) Close() error {
	q.closeOnce.Do(func() {
		q.shutdown()
		q.Loops.Wait()
		q.flush()
	})
	return nil
}

// flush hands every parked completion and every still-posted work
// request's buffer back to the application — the latter as ErrFlushed,
// the verbs WR_FLUSH_ERR discipline — then closes the CQ. The loops have
// exited, so the queues are quiescent; holding cqMu excludes the peer's
// deliveries. Delivery does not block, since nobody may be reaping
// anymore: rdma.CQDepth has room for one completion per queue slot, and
// a completion that finds the CQ full — send work requests of several
// buffers can outnumber it — is dropped, and counted in FlushDrops
// where the transport has it.
func (q *Queue) flush() {
	q.cqMu.Lock()
	defer q.cqMu.Unlock()
	q.parkMu.Lock()
	parked := q.parked
	q.parked = nil
	q.parkMu.Unlock()
	for _, c := range parked {
		q.deliver(c)
	}
	for {
		select {
		case wr := <-q.sendQ:
			level(q.m.SendDepth, -int64(wr.n))
			q.shard.End(wr.pend)
			for _, b := range wr.Bufs() {
				q.deliver(rdma.Completion{Op: rdma.OpSend, Buf: b, Err: rdma.ErrFlushed})
			}
			continue
		case b := <-q.recvQ:
			q.dropStamp(b)
			q.deliver(rdma.Completion{Op: rdma.OpRecv, Buf: b, Err: rdma.ErrFlushed})
			continue
		default:
		}
		break
	}
	q.cqClosed = true
	close(q.cq)
}

// deliver puts one flush completion on the CQ without blocking.
func (q *Queue) deliver(c rdma.Completion) {
	select {
	case q.cq <- c:
		count(q.m.Flushed)
	default:
		count(q.m.FlushDrops)
	}
}

// count adds one to c, an instrument the transport may leave out.
//
//cyclolint:hotpath
func count(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

// level moves g by n, an instrument the transport may leave out.
//
//cyclolint:hotpath
func level(g *metrics.Gauge, n int64) {
	if g != nil {
		g.Add(n)
	}
}
