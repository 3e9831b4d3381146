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
	"strconv"
	"sync/atomic"

	"cyclojoin/internal/rdma"
	"cyclojoin/internal/rdma/wq"
	"cyclojoin/internal/trace"
)

const maxFrame = 1 << 30

// linkSeq names flight-recorder tracks across all links in the process.
var linkSeq atomic.Int64

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

// link is one endpoint: the shared work queues plus the socket loops
// that stage every message through a kernel buffer.
type link struct {
	*wq.Queue
	conn  net.Conn
	stats *Stats

	// kernel staging buffers, one per direction, grown on demand — the
	// socket buffer stand-ins.
	sendStage []byte
	recvStage []byte
}

var _ rdma.QueuePair = (*link)(nil)

// New wraps an established connection. The returned Stats is live: it
// updates as the link moves data.
func New(conn net.Conn) (rdma.QueuePair, *Stats) {
	l := &link{conn: conn, stats: &Stats{}}
	shard := trace.Flight().Shard(trace.NodeTransport, "kerneltcp/"+strconv.FormatInt(linkSeq.Add(1), 10))
	l.Queue = wq.New(wq.Config{Shard: shard, MaxLen: maxFrame, Stop: conn})
	l.Loops.Add(2)
	go func() {
		defer l.Loops.Done()
		l.writeLoop()
	}()
	go func() {
		defer l.Loops.Done()
		l.readLoop()
	}()
	return l, l.stats
}

// writeLoop sends a work request's buffers one send() call pair each: a
// socket stack has no doorbell to share.
func (l *link) writeLoop() {
	var hdr [4]byte
	var wr wq.WR
	for l.NextSend(&wr) {
		placed := 0
		for i, sb := range wr.Bufs() {
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
			_, err := l.conn.Write(hdr[:])
			if err == nil {
				_, err = l.conn.Write(stage)
			}
			if err != nil {
				l.Abort(&wr, i, placed, fmt.Errorf("kerneltcp: write frame: %w", err))
				return
			}
			placed += len(payload)
			l.Sent(&wr, i, placed, nil)
		}
	}
}

func (l *link) readLoop() {
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(l.conn, hdr[:]); err != nil {
			l.Fail(rdma.Completion{Op: rdma.OpRecv, Err: fmt.Errorf("kerneltcp: read header: %w", err)})
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > maxFrame {
			l.Fail(rdma.Completion{Op: rdma.OpRecv, Err: fmt.Errorf("kerneltcp: frame length %d exceeds limit", n)})
			return
		}
		// The kernel receives into its own buffer first...
		if cap(l.recvStage) < n {
			l.recvStage = make([]byte, n)
		}
		stage := l.recvStage[:n]
		if _, err := io.ReadFull(l.conn, stage); err != nil {
			l.Fail(rdma.Completion{Op: rdma.OpRecv, Err: fmt.Errorf("kerneltcp: read payload: %w", err)})
			return
		}
		var rb *rdma.Buffer
		select {
		case <-l.Done():
			return
		case rb = <-l.Recvs():
		}
		if err := rb.SetLen(n); err != nil {
			l.Fail(rdma.Completion{Op: rdma.OpRecv, Buf: rb,
				Err: fmt.Errorf("%w: message %d B, buffer %d B", rdma.ErrBufferTooSmall, n, rb.Cap())})
			return
		}
		// ...and only then copies into the user's buffer (recv()).
		copy(rb.Data(), stage)
		l.stats.Copies.Add(1)
		l.stats.BytesCopied.Add(int64(n))
		l.stats.ContextSwitches.Add(1)
		l.FinishRecv(rb, n)
		l.Complete(rdma.Completion{Op: rdma.OpRecv, Buf: rb})
	}
}
