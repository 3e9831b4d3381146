package ring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/trace"
)

// mDoorbellRejects counts write-with-immediate doorbells rejected because
// the immediate announced a length the exposed buffer cannot hold — a
// corrupt doorbell, the write-mode analogue of a framing error.
var mDoorbellRejects = metrics.Default().Counter("ring_doorbell_rejects_total", "write doorbells rejected for an impossible announced length")

// One-sided transport mode: instead of send/recv, the transmitter places
// each fragment directly into a registered buffer the downstream neighbor
// has exposed, using RDMA write-with-immediate (the immediate carries the
// encoded length, serving as the doorbell). Flow control is explicit
// credits: the receiver advertises one credit per exposed buffer on the
// reverse direction of the same queue pair, and re-credits a buffer once
// the pipeline no longer references the frame inside it — after the frame
// has been staged for forwarding or its fragment retired. Until then the
// join entity reads tuples directly out of the exposed buffer.
//
// This is the "RDMA as distributed shared memory" wiring of a Data
// Roundabout; functionally it must be indistinguishable from the send/recv
// mode, and the ring test suite runs both.
//
// The mode is a choice of verb under the one pipeline of node.go, not a
// second pipeline. This file holds only its protocol: the credit wire
// format, exposing the receive pool and advertising credits at every
// receiver (re)start, the credit buffer pools, and the two functions the
// mode plugs into the shared loops — the frame-of-completion rule the
// receive pump applies (exposeRecvPool) and the way the transmit loop posts
// a burst (writePoster).

// creditMagic guards credit messages on the reverse channel.
const creditMagic = 0x43524454 // "CRDT"

// creditBytes is the wire size of one credit message.
const creditBytes = 8

// encodeCredit writes a credit for key into an 8-byte buffer.
func encodeCredit(buf *rdma.Buffer, key rdma.RemoteKey) error {
	binary.BigEndian.PutUint32(buf.Data()[0:4], creditMagic)
	binary.BigEndian.PutUint32(buf.Data()[4:8], uint32(key))
	return buf.SetLen(creditBytes)
}

// decodeCredit parses a credit message.
func decodeCredit(b []byte) (rdma.RemoteKey, error) {
	if len(b) != creditBytes || binary.BigEndian.Uint32(b[0:4]) != creditMagic {
		return 0, fmt.Errorf("ring: malformed credit message (%d B)", len(b))
	}
	return rdma.RemoteKey(binary.BigEndian.Uint32(b[4:8])), nil
}

// exposeRecvPool is the write-mode way to offer the receive pool upstream:
// expose every buffer, advertise a credit for each free one, and return a
// released buffer's credit as a credit message (n.repost/n.repostBatch).
// It returns the write-mode frame-of-completion rule for the receive pump.
func (n *node) exposeRecvPool(qp rdma.QueuePair, stop chan struct{}) (func(rdma.Completion) error, error) {
	wqp, ok := qp.(rdma.WriteQueuePair)
	if !ok {
		return nil, fmt.Errorf("ring: node %d: transport %T does not support one-sided writes", n.id, qp)
	}

	// Small registered buffers to send credit messages from.
	creditPool, err := n.dev.RegisterPool(n.cfg.slots(), creditBytes)
	if err != nil {
		return nil, fmt.Errorf("ring: node %d: register credit pool: %w", n.id, err)
	}
	// freeCredits holds the whole pool, so handing a buffer back never
	// blocks.
	freeCredits := make(chan *rdma.Buffer, len(creditPool))
	for _, b := range creditPool {
		freeCredits <- b
	}

	keyOf := make(map[*rdma.Buffer]rdma.RemoteKey, len(n.recvBufs))
	sendCredit := func(key rdma.RemoteKey) error {
		var cb *rdma.Buffer
		select {
		case cb = <-freeCredits:
		case <-stop:
			return nil
		case <-n.quit:
			return nil
		}
		if err := encodeCredit(cb, key); err != nil {
			return err
		}
		return wqp.PostSend(cb)
	}
	// sendCreditBatch is the write-mode batch repost: one batched post
	// carries every credit the join loop deferred — one doorbell per
	// drain instead of one per frame. Called only from the join loop
	// (flushCredits), so the scratch slice is single-threaded. A stop or
	// quit mid-acquisition abandons the batch like sendCredit does: the
	// restart handshake re-credits every exposed buffer from scratch.
	creditScratch := make([]*rdma.Buffer, 0, n.cfg.slots())
	sendCreditBatch := func(bufs []*rdma.Buffer) error {
		creditScratch = creditScratch[:0]
		for range bufs {
			var cb *rdma.Buffer
			select {
			case cb = <-freeCredits:
			case <-stop:
				for _, cb := range creditScratch {
					freeCredits <- cb
				}
				return nil
			case <-n.quit:
				for _, cb := range creditScratch {
					freeCredits <- cb
				}
				return nil
			}
			creditScratch = append(creditScratch, cb)
		}
		for i, b := range bufs {
			if err := encodeCredit(creditScratch[i], keyOf[b]); err != nil {
				return err
			}
		}
		return rdma.PostSendBatch(wqp, creditScratch)
	}
	// Expose every buffer — pinned ones too, since a frame still held by
	// the pipeline will return its credit through this (re)started
	// receiver — but advertise initial credits only for buffers not
	// currently occupied by an in-flight frame.
	var creditNow []rdma.RemoteKey
	n.recvMu.Lock()
	for _, b := range n.recvBufs {
		key, err := wqp.Expose(b)
		if err != nil {
			n.recvMu.Unlock()
			return nil, fmt.Errorf("ring: node %d: expose receive buffer: %w", n.id, err)
		}
		keyOf[b] = key
		if !n.pinned[b] {
			creditNow = append(creditNow, key)
		}
	}
	// In write mode a receive credit returns upstream as a credit message
	// for the released buffer's exposed key.
	n.repost = func(b *rdma.Buffer) error { return sendCredit(keyOf[b]) }
	n.repostBatch = sendCreditBatch
	n.recvMu.Unlock()
	for _, key := range creditNow {
		if err := sendCredit(key); err != nil {
			return nil, fmt.Errorf("ring: node %d: initial credit: %w", n.id, err)
		}
	}

	// The write-mode frame-of-completion rule.
	return func(c rdma.Completion) error {
		switch {
		case c.Err != nil:
			if c.Op == rdma.OpSend && errors.Is(c.Err, rdma.ErrClosed) {
				// A credit message raced an upstream link teardown (node
				// replacement closes the neighbor's endpoint while late
				// credits are still in flight). Losing it is harmless —
				// the replacement handshake re-credits every exposed
				// buffer from scratch.
				return nil
			}
			return c.Err
		case c.Op == rdma.OpSend:
			// A credit message went out; its buffer is free again.
			freeCredits <- c.Buf
		case c.Op == rdma.OpWrite:
			// Doorbell: a fragment landed in c.Buf; Imm carries the
			// encoded length. A corrupt doorbell (announced length the
			// exposed buffer cannot hold) fails the link — but the exposed
			// buffer itself is intact and unreferenced, so its credit goes
			// back upstream first: the receive pool must stay whole across
			// the failure, whether the ring recovers the link or an
			// operator keeps running degraded.
			if int(c.Imm) > c.Buf.Cap() {
				mDoorbellRejects.Inc()
				n.releaseRecv(c.Buf)
				return fmt.Errorf("write doorbell claims %d B in a %d B buffer", c.Imm, c.Buf.Cap())
			}
			// The frame is bound in place and the buffer stays un-credited
			// until the pipeline releases it.
			n.deliver(c.Buf, c.Buf.Data()[:c.Imm])
		}
		return nil
	}, nil
}

// writePoster is the write-mode way to post a burst of staged frames:
// collect a credit from the downstream neighbor per frame and write the
// frame straight into the buffer it names. It also posts the buffers the
// credits arrive in and returns the channel the send reaper feeds them
// through.
func (n *node) writePoster(qp rdma.QueuePair, stop chan struct{}) (func([]outbound) error, chan rdma.RemoteKey, error) {
	wqp, ok := qp.(rdma.WriteQueuePair)
	if !ok {
		return nil, nil, fmt.Errorf("ring: node %d: transport %T does not support one-sided writes", n.id, qp)
	}
	// Buffers to receive credit messages into.
	creditPool, err := n.dev.RegisterPool(n.cfg.slots(), creditBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("ring: node %d: register credit receive pool: %w", n.id, err)
	}
	for _, b := range creditPool {
		if err := wqp.PostRecv(b); err != nil {
			return nil, nil, fmt.Errorf("ring: node %d: post credit receive: %w", n.id, err)
		}
	}
	// One credit per buffer the neighbor exposes.
	credits := make(chan rdma.RemoteKey, n.cfg.slots())
	return func(batch []outbound) error {
		for _, ob := range batch {
			// Wait for a free slot in the neighbor's exposed pool. The
			// frame already left this node's receive memory (staged in the
			// join loop), so waiting here never withholds the upstream
			// credit, and it is already tracked, so a stop or fault
			// mid-wait leaves it retained for re-routing. A credit-stall
			// span records only the slow path, so an uncongested ring pays
			// nothing.
			var key rdma.RemoteKey
			select {
			case key = <-credits:
			default:
				cs := n.fsend.Begin(trace.PhaseCreditStall)
				cs.Frag, cs.Hop, cs.Arg = int32(ob.index), int32(ob.hops), int64(ob.sz)
				stallStart := time.Now()
				// End the stall span on shutdown too, so the trace keeps
				// the stalled interval instead of silently truncating it.
				// Stopping is not a fault, but it takes the same way out:
				// failLink reports nothing once stop or quit is closed.
				select {
				case <-stop:
					n.fsend.End(cs)
					return ErrClosed
				case <-n.quit:
					n.fsend.End(cs)
					return ErrClosed
				case key = <-credits:
				}
				n.m.stallNs.Add(time.Since(stallStart).Nanoseconds())
				n.fsend.End(cs)
			}
			n.beginSendSpan(ob)
			if err := wqp.PostWriteImm(key, 0, ob.staged, uint32(ob.sz)); err != nil {
				return err
			}
		}
		return nil
	}, credits, nil
}

// collectCredit decodes a credit message the send reaper found on the
// outbound endpoint and hands its key to the poster. Quitting is not a
// fault, but it takes the same way out: failLink reports nothing once quit
// is closed.
func (n *node) collectCredit(msg []byte, credits chan<- rdma.RemoteKey) error {
	key, err := decodeCredit(msg)
	if err != nil {
		return err
	}
	select {
	case credits <- key:
		return nil
	case <-n.quit:
		return ErrClosed
	}
}
