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
	"math"
	"strconv"
	"sync/atomic"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/rdma/wq"
	"cyclojoin/internal/trace"
)

// Transfer instrumentation, one atomic add per event (internal/metrics).
var (
	mSendTransfers = metrics.Default().Counter("memlink_transfers_total", "data movements over in-process links", "kind", "send")
	mBytes         = metrics.Default().Counter("memlink_bytes_total", "payload bytes moved over in-process links")
)

// linkSeq names flight-recorder tracks across all links in the process.
var linkSeq atomic.Int64

// link is one endpoint: the shared work queues plus the DMA goroutine
// that places this side's sends into the peer's posted receive buffers.
type link struct {
	*wq.Queue
	peer *link
}

var _ rdma.QueuePair = (*link)(nil)

// Pair returns two connected in-process queue pairs.
func Pair() (a, b rdma.QueuePair) {
	la, lb := newLink(), newLink()
	la.peer, lb.peer = lb, la
	la.start()
	lb.start()
	return la, lb
}

func (l *link) start() {
	l.Loops.Add(1)
	go func() {
		defer l.Loops.Done()
		l.sendLoop()
	}()
}

func newLink() *link {
	shard := trace.Flight().Shard(trace.NodeTransport, "memlink/"+strconv.FormatInt(linkSeq.Add(1), 10))
	// No wire bounds a payload: the receiver's buffer is the only limit.
	return &link{Queue: wq.New(wq.Config{Shard: shard, MaxLen: math.MaxInt})}
}

// sendLoop is the virtual DMA engine: it moves each posted send into the
// peer's next posted receive buffer, raising the completions the verbs
// semantics call for.
func (l *link) sendLoop() {
	var wr wq.WR
	for l.NextSend(&wr) {
		placed := 0
		for i := range wr.Bufs() {
			n, ok := l.placeSend(&wr, i, placed)
			if !ok {
				return
			}
			placed += n
		}
	}
}

// placeSend waits for the peer's next posted receive buffer and performs
// the single-copy direct data placement for wr's buffer i, raising the
// completions on both sides. ok is false when the link (or peer) shut
// down during the wait: Abort has handed back buffer i and the rest of
// wr, so a false return only tells the DMA loop to exit. n is the payload
// size placed (0 when the message was rejected as too large — the link
// stays up, matching per-WR error semantics).
func (l *link) placeSend(wr *wq.WR, i, placed int) (n int, ok bool) {
	payload := wr.Bufs()[i].Bytes()
	var rb *rdma.Buffer
	// Receiver-not-ready: waiting for the peer to post a buffer is the
	// RNR stall interval. The span is opened only on the slow path.
	select {
	case rb = <-l.peer.Recvs():
	default:
		cs := l.Shard().Begin(trace.PhaseCreditStall)
		cs.Arg = int64(len(payload))
		select {
		case <-l.Done():
			// Record the stall interval even on shutdown: the time spent
			// waiting for a credit that never came is exactly what the
			// stall analysis wants to see.
			l.Shard().End(cs)
			l.Abort(wr, i, placed, rdma.ErrFlushed)
			return 0, false
		case <-l.peer.Done():
			l.Shard().End(cs)
			l.Abort(wr, i, placed, rdma.ErrClosed)
			return 0, false
		case rb = <-l.peer.Recvs():
		}
		l.Shard().End(cs)
	}
	if err := rb.SetLen(len(payload)); err != nil {
		err = fmt.Errorf("%w: message %d B, buffer %d B", rdma.ErrBufferTooSmall, len(payload), rb.Cap())
		l.Sent(wr, i, placed, err)
		l.peer.Complete(rdma.Completion{Op: rdma.OpRecv, Buf: rb, Err: err})
		return 0, true
	}
	// Direct data placement: the single data movement of the
	// transfer, sender's registered buffer → receiver's registered
	// buffer.
	copy(rb.Data(), payload)
	mSendTransfers.Inc()
	mBytes.Add(int64(len(payload)))
	l.peer.FinishRecv(rb, len(payload))
	l.Sent(wr, i, placed+len(payload), nil)
	l.peer.Complete(rdma.Completion{Op: rdma.OpRecv, Buf: rb})
	return len(payload), true
}
