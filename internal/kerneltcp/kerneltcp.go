// Package kerneltcp is the software-TCP baseline of §V-G: the same
// QueuePair contract as package rdma, but with the data flow of Figure 2 —
// every message is staged through "kernel" buffers on both sides, so the
// payload crosses the memory bus the extra times that dominate the CPU cost
// of classical network stacks (Fig 3).
//
// The extra copies are performed for real (user buffer → kernel staging
// buffer on send, kernel staging buffer → user buffer on receive), and the
// package counts them, together with the simulated context switches (one
// per send/receive syscall pair), so experiments can report the CPU
// overhead a kernel stack would have added. This mirrors the paper's
// methodology: "we changed the transmitter and receiver of Data Roundabout
// to use send and recv calls instead of their RDMA counterparts".
package kerneltcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"cyclojoin/internal/rdma"
)

const queueDepth = 256
const maxFrame = 1 << 30

// Stats counts the kernel-path overhead work a link performed.
type Stats struct {
	// Copies is the number of user↔kernel buffer copies (one per send,
	// one per receive — the minimum a non-zero-copy stack performs).
	Copies atomic.Int64
	// BytesCopied is the payload volume moved by those copies; the same
	// bytes cross the memory bus again inside the copy, which is the bus
	// contention §III-A warns about.
	BytesCopied atomic.Int64
	// ContextSwitches counts the kernel entries/exits the socket calls
	// would have caused (one per message per direction).
	ContextSwitches atomic.Int64
}

type link struct {
	conn  net.Conn
	stats *Stats

	sendQ chan *rdma.Buffer
	recvQ chan *rdma.Buffer
	cq    chan rdma.Completion

	// kernel staging buffers, one per direction, grown on demand — the
	// socket buffer stand-ins.
	sendStage []byte
	recvStage []byte

	failOnce  sync.Once
	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

var _ rdma.QueuePair = (*link)(nil)

// New wraps an established connection. The returned Stats is live: it
// updates as the link moves data.
func New(conn net.Conn) (rdma.QueuePair, *Stats) {
	st := &Stats{}
	l := &link{
		conn:  conn,
		stats: st,
		sendQ: make(chan *rdma.Buffer, queueDepth),
		recvQ: make(chan *rdma.Buffer, queueDepth),
		cq:    make(chan rdma.Completion, rdma.CQDepth),
		done:  make(chan struct{}),
	}
	l.wg.Add(2)
	go func() {
		defer l.wg.Done()
		l.writeLoop()
	}()
	go func() {
		defer l.wg.Done()
		l.readLoop()
	}()
	return l, st
}

func (l *link) writeLoop() {
	var hdr [4]byte
	for {
		var sb *rdma.Buffer
		select {
		case <-l.done:
			return
		case sb = <-l.sendQ:
		}
		payload := sb.Bytes()
		// The user→kernel copy a Berkeley-sockets send() performs.
		if cap(l.sendStage) < len(payload) {
			l.sendStage = make([]byte, len(payload))
		}
		stage := l.sendStage[:len(payload)]
		copy(stage, payload)
		l.stats.Copies.Add(1)
		l.stats.BytesCopied.Add(int64(len(payload)))
		l.stats.ContextSwitches.Add(1)

		binary.BigEndian.PutUint32(hdr[:], uint32(len(stage)))
		if _, err := l.conn.Write(hdr[:]); err != nil {
			l.fail(rdma.Completion{Op: rdma.OpSend, Buf: sb, Err: fmt.Errorf("kerneltcp: write header: %w", err)})
			return
		}
		if _, err := l.conn.Write(stage); err != nil {
			l.fail(rdma.Completion{Op: rdma.OpSend, Buf: sb, Err: fmt.Errorf("kerneltcp: write payload: %w", err)})
			return
		}
		l.complete(rdma.Completion{Op: rdma.OpSend, Buf: sb})
	}
}

func (l *link) readLoop() {
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(l.conn, hdr[:]); err != nil {
			l.fail(rdma.Completion{Op: rdma.OpRecv, Err: fmt.Errorf("kerneltcp: read header: %w", err)})
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > maxFrame {
			l.fail(rdma.Completion{Op: rdma.OpRecv, Err: fmt.Errorf("kerneltcp: frame length %d exceeds limit", n)})
			return
		}
		// The kernel receives into its own buffer first...
		if cap(l.recvStage) < n {
			l.recvStage = make([]byte, n)
		}
		stage := l.recvStage[:n]
		if _, err := io.ReadFull(l.conn, stage); err != nil {
			l.fail(rdma.Completion{Op: rdma.OpRecv, Err: fmt.Errorf("kerneltcp: read payload: %w", err)})
			return
		}
		var rb *rdma.Buffer
		select {
		case <-l.done:
			return
		case rb = <-l.recvQ:
		}
		if n > rb.Cap() {
			l.fail(rdma.Completion{Op: rdma.OpRecv, Buf: rb,
				Err: fmt.Errorf("%w: message %d B, buffer %d B", rdma.ErrBufferTooSmall, n, rb.Cap())})
			return
		}
		// ...and only then copies into the user's buffer (recv()).
		copy(rb.Data()[:n], stage)
		l.stats.Copies.Add(1)
		l.stats.BytesCopied.Add(int64(n))
		l.stats.ContextSwitches.Add(1)
		if err := rb.SetLen(n); err != nil {
			l.fail(rdma.Completion{Op: rdma.OpRecv, Buf: rb, Err: err})
			return
		}
		l.complete(rdma.Completion{Op: rdma.OpRecv, Buf: rb})
	}
}

func (l *link) complete(c rdma.Completion) {
	select {
	case l.cq <- c:
	case <-l.done:
	}
}

func (l *link) fail(c rdma.Completion) {
	l.failOnce.Do(func() {
		select {
		case l.cq <- c:
		default:
		}
		close(l.done)
		_ = l.conn.Close()
	})
}

// PostSend implements rdma.QueuePair.
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
	case l.sendQ <- b:
		return nil
	}
}

// PostRecv implements rdma.QueuePair.
func (l *link) PostRecv(b *rdma.Buffer) error {
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
	case l.recvQ <- b:
		return nil
	}
}

// PostSendBatch implements rdma.QueuePair one send at a time: a socket
// stack has no doorbell to share. Prefix-atomic: buffers before the
// first refused post are posted and will complete.
func (l *link) PostSendBatch(bufs []*rdma.Buffer) error {
	for i, b := range bufs {
		if err := l.PostSend(b); err != nil {
			return fmt.Errorf("kerneltcp: batch send %d/%d: %w", i, len(bufs), err)
		}
	}
	return nil
}

// PostRecvBatch implements rdma.QueuePair one receive at a time,
// prefix-atomic like PostSendBatch.
func (l *link) PostRecvBatch(bufs []*rdma.Buffer) error {
	for i, b := range bufs {
		if err := l.PostRecv(b); err != nil {
			return fmt.Errorf("kerneltcp: batch recv %d/%d: %w", i, len(bufs), err)
		}
	}
	return nil
}

// Completions implements rdma.QueuePair.
func (l *link) Completions() <-chan rdma.Completion { return l.cq }

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

// Close implements rdma.QueuePair.
func (l *link) Close() error {
	l.closeOnce.Do(func() {
		l.failOnce.Do(func() {
			close(l.done)
			_ = l.conn.Close()
		})
		l.wg.Wait()
		close(l.cq)
	})
	return nil
}
