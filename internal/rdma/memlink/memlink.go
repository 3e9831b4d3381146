// Package memlink implements rdma.QueuePair for two endpoints in the same
// process.
//
// A send performs exactly one data movement: the payload is copied from the
// sender's registered buffer directly into the receiver's pre-posted
// registered buffer. That single copy is precisely the semantics of RDMA
// direct data placement — on hardware it is the NIC's DMA engine writing
// into the target buffer; here it is one memmove — and there is no
// intermediate staging in either "host's" software, no kernel buffer and no
// per-message allocation.
//
// Receiver-not-ready behaviour matches a reliable-connection queue pair:
// a sender whose peer has no posted receive buffer blocks until one is
// posted (hardware would retry/backpressure; the effect on the Data
// Roundabout — upstream hosts stall when a slow host's ring buffers fill —
// is the same, and §V-D's skew-balancing argument depends on it).
package memlink

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/trace"
)

// Transfer instrumentation, one atomic add per event (internal/metrics).
var (
	mSendTransfers = metrics.Default().Counter("memlink_transfers_total", "data movements over in-process links", "kind", "send")
	mBytes         = metrics.Default().Counter("memlink_bytes_total", "payload bytes moved over in-process links")
)

// linkSeq names flight-recorder tracks across all links in the process.
var linkSeq atomic.Int64

// queueDepth bounds the number of outstanding posted buffers per direction.
// The Data Roundabout posts at most its ring-buffer count.
const queueDepth = 256

// maxBatch bounds how many sends ride in one work request. Larger batches
// are split transparently; the bound exists so the buffers can live in a
// fixed array INSIDE the workReq — the caller's slice is copied out at
// post time, letting it reuse its scratch immediately without racing the
// DMA goroutine, and without a per-batch heap allocation.
const maxBatch = 16

// workReq is one outbound work request: a send, or a doorbell-batched run
// of sends.
type workReq struct {
	buf *rdma.Buffer
	// batchLen > 0 marks a batched send: the buffers are batchArr[:batchLen]
	// and buf is nil. The array is inline (not a slice) because the workReq
	// is copied by value through sendQ — a slice into a local array would
	// dangle.
	batchLen int
	batchArr [maxBatch]*rdma.Buffer
	// pend is the flight-recorder span opened at post time and closed at
	// completion — the WR post→completion latency the paper's §III-B
	// pipelining argument turns on. A batch carries one span for the whole
	// run: the doorbell is the unit being measured.
	pend trace.Pending
}

type link struct {
	peer *link

	sendQ chan workReq
	recvQ chan *rdma.Buffer
	cq    chan rdma.Completion

	// shard records this link's work-request spans on the transport
	// track; inert when flight recording is disabled.
	shard *trace.Shard

	// recvPend holds the open WRRecv span per posted receive buffer
	// (guarded by mu): posted→filled is the buffer's residency time.
	mu       sync.Mutex
	recvPend map[*rdma.Buffer]trace.Pending

	// cqMu guards cq against close: completions are delivered by the
	// PEER link's DMA goroutine, which outlives this side's Close.
	cqMu     sync.RWMutex
	cqClosed bool

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

var _ rdma.QueuePair = (*link)(nil)

// Pair returns two connected in-process queue pairs.
func Pair() (a, b rdma.QueuePair) {
	la := newLink()
	lb := newLink()
	la.peer, lb.peer = lb, la
	la.start()
	lb.start()
	return la, lb
}

func newLink() *link {
	return &link{
		sendQ: make(chan workReq, queueDepth),
		recvQ: make(chan *rdma.Buffer, queueDepth),
		// The CQ out-sizes both work queues together so flush() can always
		// deliver its WR_FLUSH_ERR completions without blocking: every
		// posted work request must come back through the CQ even when
		// nobody is reaping anymore.
		cq:       make(chan rdma.Completion, 2*queueDepth+64),
		recvPend: make(map[*rdma.Buffer]trace.Pending),
		done:     make(chan struct{}),
		shard:    trace.Flight().Shard(trace.NodeTransport, "memlink/"+strconv.FormatInt(linkSeq.Add(1), 10)),
	}
}

func (l *link) start() {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.sendLoop()
	}()
}

// sendLoop is the virtual DMA engine: it moves each posted send into the
// peer's next posted receive buffer, raising the completions the verbs
// semantics call for.
func (l *link) sendLoop() {
	for {
		var wr workReq
		// Fast path: drain already-posted work with a non-blocking receive;
		// the two-way select (and its channel locking) is the slow path.
		// Shutdown still lands: a closed link stops producing work, so the
		// queue drains and the next pass parks in the select below.
		select {
		case wr = <-l.sendQ:
		default:
			select {
			case <-l.done:
				return
			case wr = <-l.sendQ:
			}
		}
		if wr.batchLen > 0 {
			// Doorbell batch: one queue hand-off delivered the whole run;
			// place each buffer in order. A shutdown mid-run flushes the
			// unplaced remainder here — flush() cannot see a dequeued WR.
			total := 0
			for i := 0; i < wr.batchLen; i++ {
				// The run's last buffer carries the wr-send span, so it
				// ends before the run's last send completion is raised.
				var pend *trace.Pending
				if i == wr.batchLen-1 {
					pend = &wr.pend
				}
				n, ok := l.placeSend(wr.batchArr[i], pend, total)
				if !ok {
					if pend == nil {
						l.endSend(&wr.pend, total)
					}
					for _, rest := range wr.batchArr[i+1 : wr.batchLen] {
						l.complete(rdma.Completion{Op: rdma.OpSend, Buf: rest, Err: rdma.ErrFlushed})
					}
					return
				}
				total += n
			}
			continue
		}
		if _, ok := l.placeSend(wr.buf, &wr.pend, 0); !ok {
			return
		}
	}
}

// endSend closes a work request's wr-send span over the placed bytes it
// moved; a nil pend (not the request's last buffer) is a no-op. Every
// caller does so before raising the request's last send completion:
// publishing the completion is the request's last act, so a caller that
// has read it finds the span in any later snapshot.
func (l *link) endSend(pend *trace.Pending, placed int) {
	if pend == nil {
		return
	}
	pend.Arg = int64(placed)
	pend.Aux = int64(len(l.cq))
	l.shard.End(*pend)
}

// placeSend waits for the peer's next posted receive buffer and performs
// the single-copy direct data placement for sb, raising the completions
// on both sides. ok is false when the link (or peer) shut down during the
// wait; sb's terminal completion has been delivered either way, so a
// false return only tells the DMA loop to exit. n is the payload size
// placed (0 when the message was rejected as too large — the link stays
// up, matching per-WR error semantics). A non-nil pend says sb is the last
// buffer of its work request: its wr-send span, which has placed bytes
// behind it already, ends before sb's send completion is raised.
func (l *link) placeSend(sb *rdma.Buffer, pend *trace.Pending, placed int) (n int, ok bool) {
	payload := sb.Bytes()
	var rb *rdma.Buffer
	// Receiver-not-ready: waiting for the peer to post a buffer is the
	// RNR stall interval. The span is opened only on the slow path.
	select {
	case rb = <-l.peer.recvQ:
	default:
		cs := l.shard.Begin(trace.PhaseCreditStall)
		cs.Arg = int64(len(payload))
		select {
		case <-l.done:
			// Record the stall interval even on shutdown: the time spent
			// waiting for a credit that never came is exactly what the
			// stall analysis wants to see. The work request was already
			// dequeued, so flush() cannot see it — hand its buffer back
			// here or it would never return through the CQ.
			l.shard.End(cs)
			l.endSend(pend, placed)
			l.complete(rdma.Completion{Op: rdma.OpSend, Buf: sb, Err: rdma.ErrFlushed})
			return 0, false
		case <-l.peer.done:
			l.shard.End(cs)
			l.endSend(pend, placed)
			l.complete(rdma.Completion{Op: rdma.OpSend, Buf: sb, Err: rdma.ErrClosed})
			return 0, false
		case rb = <-l.peer.recvQ:
		}
		l.shard.End(cs)
	}
	if len(payload) > rb.Cap() {
		err := fmt.Errorf("%w: message %d B, buffer %d B", rdma.ErrBufferTooSmall, len(payload), rb.Cap())
		l.endSend(pend, placed)
		l.complete(rdma.Completion{Op: rdma.OpSend, Buf: sb, Err: err})
		l.peer.complete(rdma.Completion{Op: rdma.OpRecv, Buf: rb, Err: err})
		return 0, true
	}
	// Direct data placement: the single data movement of the
	// transfer, sender's registered buffer → receiver's registered
	// buffer.
	copy(rb.Data(), payload)
	if err := rb.SetLen(len(payload)); err != nil {
		l.peer.complete(rdma.Completion{Op: rdma.OpRecv, Buf: rb, Err: err})
		return 0, true
	}
	mSendTransfers.Inc()
	mBytes.Add(int64(len(payload)))
	l.peer.finishRecv(rb, len(payload))
	l.endSend(pend, placed+len(payload))
	l.complete(rdma.Completion{Op: rdma.OpSend, Buf: sb})
	l.peer.complete(rdma.Completion{Op: rdma.OpRecv, Buf: rb})
	return len(payload), true
}

// complete delivers a completion unless the CQ is already closed. The
// guard is needed because the peer's DMA goroutine also delivers here.
//
// Delivery must not race l.done: a frame already placed in the peer's
// buffer whose success completion is dropped would look undelivered to the
// sender and be re-sent by ring recovery — a duplicate. The done escape is
// therefore a last resort taken only when the CQ is genuinely full during
// teardown (the consumer is gone), never while there is room.
//
//cyclolint:hotpath
func (l *link) complete(c rdma.Completion) {
	l.cqMu.RLock()
	defer l.cqMu.RUnlock()
	if l.cqClosed {
		return
	}
	select {
	case l.cq <- c:
		return
	default:
	}
	select {
	case l.cq <- c:
	case <-l.done:
	}
}

// PostSend implements rdma.QueuePair.
//
//cyclolint:hotpath
func (l *link) PostSend(b *rdma.Buffer) error {
	// Check shutdown first: with a closed done channel and free queue
	// space, a bare select would choose nondeterministically.
	select {
	case <-l.done:
		return rdma.ErrClosed
	default:
	}
	select {
	case <-l.done:
		return rdma.ErrClosed
	case l.sendQ <- workReq{buf: b, pend: l.shard.Begin(trace.PhaseWRSend)}:
		return nil
	}
}

// PostRecv implements rdma.QueuePair.
//
//cyclolint:hotpath
func (l *link) PostRecv(b *rdma.Buffer) error {
	// Check shutdown first: with a closed done channel and free queue
	// space, a bare select would choose nondeterministically.
	select {
	case <-l.done:
		return rdma.ErrClosed
	default:
	}
	// Stamp the residency span BEFORE the buffer becomes visible to the
	// peer's DMA goroutine: once enqueued, finishRecv may run immediately.
	l.stampRecv(b)
	select {
	case <-l.done:
		l.dropRecvStamp(b)
		return rdma.ErrClosed
	case l.recvQ <- b:
		return nil
	}
}

// PostSendBatch implements rdma.QueuePair: the whole run crosses to
// the DMA goroutine in one queue hand-off (one doorbell) instead of one
// per frame. Runs longer than maxBatch split into several doorbells.
//
//cyclolint:hotpath
func (l *link) PostSendBatch(bufs []*rdma.Buffer) error {
	for len(bufs) > 0 {
		n := len(bufs)
		if n > maxBatch {
			n = maxBatch
		}
		select {
		case <-l.done:
			return rdma.ErrClosed
		default:
		}
		wr := workReq{batchLen: n, pend: l.shard.Begin(trace.PhaseWRSend)}
		copy(wr.batchArr[:n], bufs[:n])
		// Fast path: the work queue usually has room — one non-blocking
		// send beats arming the two-way select. The shutdown check above
		// keeps the post/close race window no wider than the select's.
		select {
		case l.sendQ <- wr:
		default:
			select {
			case <-l.done:
				l.shard.End(wr.pend)
				return rdma.ErrClosed
			case l.sendQ <- wr:
			}
		}
		bufs = bufs[n:]
	}
	return nil
}

// PostRecvBatch implements rdma.QueuePair. The receive queue is
// consumed buffer-at-a-time by the peer's DMA engine, so the batch form
// is a single shutdown check plus the per-buffer enqueues — prefix-atomic
// like the send side.
//
//cyclolint:hotpath
func (l *link) PostRecvBatch(bufs []*rdma.Buffer) error {
	select {
	case <-l.done:
		return rdma.ErrClosed
	default:
	}
	for i, b := range bufs {
		l.stampRecv(b)
		// Fast path: the receive queue usually has room — one non-blocking
		// send beats arming the two-way select.
		select {
		case l.recvQ <- b:
			continue
		default:
		}
		select {
		case <-l.done:
			l.dropRecvStamp(b)
			//cyclolint:coldpath link teardown: the queue pair is closing
			return fmt.Errorf("rdma: batch recv %d/%d: %w", i, len(bufs), rdma.ErrClosed)
		case l.recvQ <- b:
		}
	}
	return nil
}

// PollCQ implements rdma.QueuePair: a non-blocking drain of the
// completion channel. A closed CQ reads as empty.
//
//cyclolint:hotpath
func (l *link) PollCQ(dst []rdma.Completion) int {
	n := 0
	for n < len(dst) {
		select {
		case c, ok := <-l.cq:
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

// stampRecv opens the WRRecv residency span for a buffer about to be
// posted.
//
//cyclolint:hotpath
func (l *link) stampRecv(b *rdma.Buffer) {
	if !l.shard.Enabled() {
		return
	}
	pd := l.shard.Begin(trace.PhaseWRRecv)
	l.mu.Lock()
	l.recvPend[b] = pd
	l.mu.Unlock()
}

// dropRecvStamp abandons a stamp whose post failed.
//
//cyclolint:hotpath
func (l *link) dropRecvStamp(b *rdma.Buffer) {
	if !l.shard.Enabled() {
		return
	}
	l.mu.Lock()
	delete(l.recvPend, b)
	l.mu.Unlock()
}

// finishRecv closes the buffer's WRRecv span when a message lands in it.
// Called by the PEER's DMA goroutine, hence the lock.
//
//cyclolint:hotpath
func (l *link) finishRecv(b *rdma.Buffer, n int) {
	if !l.shard.Enabled() {
		return
	}
	l.mu.Lock()
	pd, ok := l.recvPend[b]
	if ok {
		delete(l.recvPend, b)
	}
	l.mu.Unlock()
	if !ok {
		return
	}
	pd.Arg = int64(n)
	pd.Aux = int64(len(l.cq))
	l.shard.End(pd)
}

// Completions implements rdma.QueuePair.
func (l *link) Completions() <-chan rdma.Completion { return l.cq }

// Close implements rdma.QueuePair.
func (l *link) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.wg.Wait()
		l.flush()
		// Blocked deliveries (ours or the peer's) drain via l.done;
		// taking the write lock then excludes new ones before close.
		l.cqMu.Lock()
		l.cqClosed = true
		close(l.cq)
		l.cqMu.Unlock()
	})
	return nil
}

// flush hands every still-posted work request's buffer back to the
// application as an ErrFlushed completion (the verbs WR_FLUSH_ERR
// discipline) before the CQ closes. Runs after the DMA goroutine has
// exited, so the queues are quiescent; delivery is best-effort
// non-blocking against a CQ nobody may be reaping anymore.
func (l *link) flush() {
	deliver := func(c rdma.Completion) {
		select {
		case l.cq <- c:
		default:
		}
	}
drainSends:
	for {
		select {
		case wr := <-l.sendQ:
			l.shard.End(wr.pend)
			if wr.batchLen > 0 {
				for _, b := range wr.batchArr[:wr.batchLen] {
					deliver(rdma.Completion{Op: rdma.OpSend, Buf: b, Err: rdma.ErrFlushed})
				}
				continue
			}
			deliver(rdma.Completion{Op: rdma.OpSend, Buf: wr.buf, Err: rdma.ErrFlushed})
		default:
			break drainSends
		}
	}
	for {
		select {
		case b := <-l.recvQ:
			l.dropRecvStamp(b)
			deliver(rdma.Completion{Op: rdma.OpRecv, Buf: b, Err: rdma.ErrFlushed})
		default:
			return
		}
	}
}
