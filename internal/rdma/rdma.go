// Package rdma defines the RDMA-verbs-shaped transport contract that the
// Data Roundabout is written against, plus the memory-registration machinery
// whose cost profile drives the paper's design (§III).
//
// The paper's three RDMA lessons are encoded directly in this API:
//
//  1. All buffers are registered up front (Device.Register) and reused;
//     registration is expensive, so the ring allocates its buffer pool once
//     ("the cost of registration renders on-demand allocation and
//     registration of memory buffers infeasible", §III-C).
//  2. I/O is fully asynchronous: applications post work requests
//     (PostSend/PostRecv) and later reap Completions from a completion
//     queue, which is what lets the Data Roundabout overlap communication
//     with join processing (§III-B).
//  3. Data is placed directly into the receiver's pre-posted buffer
//     (direct data placement): a transfer involves no intermediate copy in
//     either host's software stack.
//
// The verbs half of every transport — post verbs, receive stamps,
// completion delivery, PollCQ and the flushing Close — is written once,
// in subpackage wq. Each transport embeds a wq.Queue and adds only its
// data mover: memlink (in-process, genuinely zero-copy), tcplink (real
// TCP sockets carrying the same semantics) and package kerneltcp (the
// paper's software-TCP baseline, with the extra user↔kernel staging
// copies performed for real).
package rdma

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Op identifies the verb a completion refers to.
type Op uint8

// Work request operations.
const (
	// OpSend completes when the local buffer has been handed off to the
	// wire and may be reused.
	OpSend Op = iota + 1
	// OpRecv completes when a message has been placed into the posted
	// receive buffer.
	OpRecv
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Completion is one completion-queue entry.
type Completion struct {
	// Op says which verb completed.
	Op Op
	// Buf is the buffer whose work request completed. Ownership returns
	// to the application with the completion.
	Buf *Buffer
	// Err is non-nil if the work request failed; the queue pair is then
	// unusable.
	Err error
}

// QueuePair is the asynchronous, connection-oriented transport endpoint —
// the shape of an RDMA RC queue pair reduced to the verbs the Data
// Roundabout needs: two-sided send and receive, sends also as a batch
// posted with one doorbell, and a completion queue reaped one at a time
// or drained with one poll. Receives are posted one at a time: the ring
// returns each receive credit where the hop that held it ends, so it has
// no batch of them to post.
//
// Semantics all implementations must provide (the rdmatest package checks
// them; DESIGN.md §11 specifies the batch verbs):
//
//   - messages arrive exactly once, in posting order;
//   - a receive completes only into a buffer the application posted
//     (receiver-not-ready senders block rather than drop);
//   - a send completion returns buffer ownership to the application;
//   - after Close, posts fail with ErrClosed and the completion channel is
//     eventually closed;
//   - work requests still posted at Close are flushed: each one's buffer
//     comes back through the completion queue with ErrFlushed before the
//     channel closes, so a fault never strands pool buffers;
//   - batches preserve order: PostSendBatch(a, b, c) is observably
//     identical to three PostSends back to back — the peer receives a, b,
//     c in order, and each buffer gets its own completion;
//   - a batch fails prefix-atomically at post time: if buffer i is
//     rejected, buffers 0..i-1 are already posted (and will complete),
//     buffers i.. are not posted and remain owned by the caller, and the
//     returned error identifies i;
//   - PollCQ never blocks: it moves at most len(dst) already-available
//     completions into dst and returns the count, 0 when the CQ is empty
//     or the queue pair has shut down. It may be interleaved freely with
//     channel receives from Completions(); each completion is delivered
//     exactly once through exactly one of the two.
//
// The three transports share one implementation of these verbs
// (package wq): a send batch crosses to the transport in one queue
// hand-off per 16 buffers, which tcplink writes with one writev,
// memlink places buffer by buffer and kerneltcp sends one socket write
// pair per buffer.
type QueuePair interface {
	// PostRecv hands a registered buffer to the transport for the next
	// incoming message. Posted buffers fill in posting order.
	PostRecv(b *Buffer) error
	// PostSend transmits b.Bytes() to the peer.
	PostSend(b *Buffer) error
	// PostSendBatch transmits each buffer's Bytes() in order with a
	// single doorbell. One OpSend completion is raised per buffer.
	PostSendBatch(bufs []*Buffer) error
	// Completions returns the completion queue. The channel is closed
	// when the queue pair shuts down.
	Completions() <-chan Completion
	// PollCQ moves up to len(dst) available completions into dst without
	// blocking and returns how many were moved.
	PollCQ(dst []Completion) int
	// Close shuts the queue pair down and releases its resources.
	// Close is idempotent.
	Close() error
}

// BufferedTransport marks queue pairs whose send completions can precede
// the peer observing the data: a real wire with buffering between the
// endpoints (tcplink's kernel socket buffers). On such a transport,
// closing the receiving endpoint while the sender's endpoint is being
// torn down can discard frames the sender has already counted delivered —
// the receiver must be allowed to drain the wire to EOF first.
// Synchronous-placement transports (memlink, where a send completion
// means the frame is already in the peer's completion queue) leave it
// unimplemented; wrappers forward to the wrapped endpoint.
type BufferedTransport interface {
	// BufferedWire reports whether delivered-at-sender frames can still
	// be in flight toward the receiver.
	BufferedWire() bool
}

// Buffered reports whether qp rides a buffered wire (see
// BufferedTransport). Queue pairs that do not implement the capability
// are synchronous: false.
func Buffered(qp QueuePair) bool {
	b, ok := qp.(BufferedTransport)
	return ok && b.BufferedWire()
}

// ErrClosed is returned by posts on a closed queue pair.
var ErrClosed = errors.New("rdma: queue pair closed")

// ErrFlushed marks completions for work requests that were still posted
// when the queue pair shut down — the software analogue of the verbs
// WR_FLUSH_ERR. Buffer ownership returns to the application with the
// flush completion: a transport must hand every posted buffer back
// through the completion queue before closing it, or the application's
// buffer pool shrinks permanently under faults.
var ErrFlushed = errors.New("rdma: work request flushed on queue pair shutdown")

// ErrBufferTooSmall is reported (via a completion error) when an incoming
// message exceeds the posted receive buffer, mirroring the fatal RNR/length
// errors of real RNICs.
var ErrBufferTooSmall = errors.New("rdma: posted receive buffer too small for incoming message")

// CQDepth is the buffered depth of completion channels: one completion
// per slot of a transport's two work queues (256 send work requests and
// 256 receive buffers, package wq) and 64 to spare, so a queue pair
// shutting down can hand 256 posted sends and 256 posted receives back
// through its CQ even when nobody reaps it anymore. A send work request
// may carry up to 16 buffers; flushed buffers beyond the CQ's room are
// dropped (and counted by a transport that exports its queue counters).
// Wrappers size theirs from it. Posting more outstanding work requests
// than this without reaping completions is an application error on real
// hardware too.
const CQDepth = 2*256 + 64

// Buffer is a registered memory buffer. Only registered buffers can be
// posted to a queue pair — the compile-time analogue of the RNIC's
// protection checks.
type Buffer struct {
	data []byte
	// n moves with the buffer: exactly one goroutine holds a buffer
	// between post and completion, and every hand-off (queue-pair post,
	// completion channel, free pool) is a channel send that orders the
	// accesses. bufown enforces the single-owner protocol dynamically.
	//
	//cyclolint:sharesafe ownership transfers with the buffer through channel hand-offs
	n   int
	dev *Device
}

// Data exposes the buffer's full registered extent for encoding into.
func (b *Buffer) Data() []byte { return b.data }

// Cap returns the registered size in bytes.
func (b *Buffer) Cap() int { return len(b.data) }

// Len returns the valid payload length.
func (b *Buffer) Len() int { return b.n }

// SetLen declares the first n bytes as the valid payload (before a send, or
// by the transport after a receive).
func (b *Buffer) SetLen(n int) error {
	if n < 0 || n > len(b.data) {
		return fmt.Errorf("rdma: SetLen(%d) outside registered extent %d", n, len(b.data))
	}
	b.n = n
	return nil
}

// Bytes returns the valid payload b.Data()[:b.Len()].
func (b *Buffer) Bytes() []byte { return b.data[:b.n] }

// Device stands in for an opened RNIC plus protection domain: the scope
// within which buffers are registered. It tracks registration statistics so
// experiments can account for the setup cost the paper amortizes away.
type Device struct {
	name string

	mu    sync.Mutex
	stats RegStats
}

// RegStats aggregates memory-registration work on a device.
type RegStats struct {
	// Registrations counts Register calls.
	Registrations int
	// BytesPinned is the total registered (pinned) volume.
	BytesPinned int64
	// ModeledCost estimates the CPU time registration would have cost on
	// the paper's testbed (address translation + pinning, per page).
	ModeledCost time.Duration
}

// Registration cost model: a fixed syscall/verbs overhead plus a per-page
// pinning cost. The constants are in the range measured by the authors'
// earlier RDMA study [11] for iWARP NICs; they matter only for accounting,
// never for correctness.
const (
	regBaseCost    = 30 * time.Microsecond
	regPerPageCost = 350 * time.Nanosecond
	pageSize       = 4096
)

// ModeledRegistrationCost returns the registration cost model's estimate
// for one buffer of the given size, without allocating or registering
// anything — for analytic experiments that sweep registration counts far
// beyond what should be materialized.
func ModeledRegistrationCost(size int) time.Duration {
	if size <= 0 {
		return 0
	}
	pages := (size + pageSize - 1) / pageSize
	return regBaseCost + time.Duration(pages)*regPerPageCost
}

// OpenDevice opens a named virtual RNIC.
func OpenDevice(name string) *Device {
	return &Device{name: name}
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Register allocates and registers a buffer of the given size. The zero
// value of the returned buffer's length is 0; use Data/SetLen to fill it.
func (d *Device) Register(size int) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("rdma: register %d bytes on %s", size, d.name)
	}
	pages := (size + pageSize - 1) / pageSize
	d.mu.Lock()
	d.stats.Registrations++
	d.stats.BytesPinned += int64(size)
	d.stats.ModeledCost += regBaseCost + time.Duration(pages)*regPerPageCost
	d.mu.Unlock()
	return &Buffer{data: make([]byte, size), dev: d}, nil
}

// RegisterPool registers count buffers of size bytes each — the statically
// allocated ring of buffers each Data Roundabout node owns (§III-D).
func (d *Device) RegisterPool(count, size int) ([]*Buffer, error) {
	if count <= 0 {
		return nil, fmt.Errorf("rdma: register pool of %d buffers on %s", count, d.name)
	}
	pool := make([]*Buffer, count)
	for i := range pool {
		b, err := d.Register(size)
		if err != nil {
			return nil, err
		}
		pool[i] = b
	}
	return pool, nil
}

// Stats returns a snapshot of the device's registration statistics.
func (d *Device) Stats() RegStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
