// Package tcplink carries the rdma.QueuePair semantics over a real TCP
// connection (any net.Conn).
//
// This is the deployment path for a Data Roundabout without RDMA hardware:
// the programming model upstairs is unchanged — pre-registered buffers,
// asynchronous work requests, completion queues, in-order exactly-once
// messages — while the wire underneath is an ordinary socket. It is also
// how the test suite runs the full ring over the loopback interface.
//
// Framing is one type byte (always a send) plus a 4-byte big-endian
// payload length. A message larger than the peer's posted receive buffer,
// or a frame of any other type, is a fatal link error, as on real RNICs.
// Each frame reaches the socket in a single writev (header, payload and
// CRC trailer coalesced), and payloads the 32-bit length field cannot
// carry are rejected at post time with ErrFrameTooLarge rather than
// corrupting the stream.
//
// With NewChecksummed, every frame additionally carries a CRC-32C of its
// payload, verified at the receiver — end-to-end integrity over links that
// cannot be trusted the way a machine-room switch can (iWARP gets this
// from TCP checksums plus the MPA CRC; both endpoints must enable it).
package tcplink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/trace"
)

// linkSeq names flight-recorder tracks across all links in the process.
var linkSeq atomic.Int64

// castagnoli is the CRC-32C table (the polynomial iWARP's MPA layer uses).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const queueDepth = 256

// defaultMaxFrame bounds payload sizes in both directions: at the
// receiver it guards against corrupt length prefixes, at the sender it
// keeps payload lengths far away from the uint32 wire field's wrap
// point (a ≥ 4 GiB payload would otherwise truncate silently and
// corrupt the stream). Tests shrink the limit via newLink.
const defaultMaxFrame = 1 << 30

// ErrFrameTooLarge is returned by PostSend/PostSendBatch when the payload
// exceeds the maximum frame size. The work request is rejected before
// anything reaches the wire.
var ErrFrameTooLarge = errors.New("tcplink: frame exceeds the maximum frame size")

// DefaultDialTimeout bounds Dial: a black-holed peer (dead machine,
// dropped SYNs) turns into a diagnosable error instead of wedging ring
// construction forever.
const DefaultDialTimeout = 10 * time.Second

// Hot-path instrumentation. Frames and bytes are counted per direction;
// updates are single atomic adds (see internal/metrics).
var (
	mTxFrames    = metrics.Default().Counter("tcplink_frames_total", "frames moved over tcplink connections", "dir", "tx")
	mRxFrames    = metrics.Default().Counter("tcplink_frames_total", "frames moved over tcplink connections", "dir", "rx")
	mTxBytes     = metrics.Default().Counter("tcplink_bytes_total", "payload bytes moved over tcplink connections", "dir", "tx")
	mRxBytes     = metrics.Default().Counter("tcplink_bytes_total", "payload bytes moved over tcplink connections", "dir", "rx")
	mCompletions = metrics.Default().Counter("tcplink_completions_total", "completions delivered to applications")
	mCRCFailures = metrics.Default().Counter("tcplink_checksum_failures_total", "CRC-32C payload mismatches detected at the receiver")
	mPostRejects = metrics.Default().Counter("tcplink_post_rejects_total", "work requests rejected by sender-side validation")
	mFlushed     = metrics.Default().Counter("tcplink_flushed_total", "posted work requests flushed with an error completion at shutdown")
	mFlushDrops  = metrics.Default().Counter("tcplink_flush_drops_total", "flush completions dropped because the completion queue was full at shutdown")
	mSendDepth   = metrics.Default().Gauge("tcplink_send_queue_depth", "posted work requests not yet on the wire")
	mFrameBytes  = metrics.Default().Histogram("tcplink_frame_bytes", "transmitted frame payload sizes",
		metrics.ExponentialBounds(1024, 4, 10))
)

// frameSend is the one frame type; any other type byte fails the link.
const frameSend = 0

// hdrLen is the frame header: the type byte plus the payload length.
const hdrLen = 5

// maxBatch bounds how many sends ride in one work request (larger batches
// split transparently). The bound keeps the batch in a fixed array INSIDE
// the workReq, so the caller's slice is copied out at post time — the
// caller may reuse its scratch immediately — with no per-batch heap
// allocation, and lets writeLoop size its frame-assembly scratch statically.
const maxBatch = 16

// workReq is one outbound work request: a send, or a doorbell-batched run
// of sends.
type workReq struct {
	buf *rdma.Buffer
	// batchLen > 0 marks a batched send: the buffers are batchArr[:batchLen]
	// and buf is nil. Inline array, not a slice — the workReq is copied by
	// value through sendQ.
	batchLen int
	batchArr [maxBatch]*rdma.Buffer
	// pend is the flight-recorder span opened at post time and closed
	// once the frame is on the wire (WR post→completion latency). A batch
	// carries one span for the whole run — the doorbell is the unit.
	pend trace.Pending
}

type link struct {
	conn     net.Conn
	checksum bool
	// maxFrame is the largest payload accepted in either direction
	// (defaultMaxFrame outside tests).
	maxFrame int
	// coalesce stages header+payload+CRC into one Write for conns that
	// lack a writev fast path (net.Pipe in tests); owned by writeLoop.
	coalesce []byte
	// isTCP selects the net.Buffers writev fast path.
	isTCP bool

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

	failOnce  sync.Once
	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup

	// pendMu guards pendingFail: a fatal completion that found the CQ
	// full is parked here instead of dropped — it may carry the receive
	// buffer the failed frame consumed, and losing it would shrink the
	// application's pool permanently. Close's flush delivers it first.
	pendMu      sync.Mutex
	pendingFail []rdma.Completion
}

var _ rdma.QueuePair = (*link)(nil)

// New wraps an established connection in a queue pair. The link owns the
// connection and closes it on Close.
func New(conn net.Conn) rdma.QueuePair {
	return newLink(conn, false, defaultMaxFrame)
}

// NewChecksummed is New with per-frame CRC-32C payload verification. Both
// endpoints must use it.
func NewChecksummed(conn net.Conn) rdma.QueuePair {
	return newLink(conn, true, defaultMaxFrame)
}

func newLink(conn net.Conn, checksum bool, maxFrame int) *link {
	_, isTCP := conn.(*net.TCPConn)
	l := &link{
		conn:     conn,
		checksum: checksum,
		maxFrame: maxFrame,
		isTCP:    isTCP,
		sendQ:    make(chan workReq, queueDepth),
		recvQ:    make(chan *rdma.Buffer, queueDepth),
		cq:       make(chan rdma.Completion, rdma.CQDepth),
		recvPend: make(map[*rdma.Buffer]trace.Pending),
		done:     make(chan struct{}),
		shard:    trace.Flight().Shard(trace.NodeTransport, "tcplink/"+strconv.FormatInt(linkSeq.Add(1), 10)),
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
	return l
}

// Dial connects to a listening peer and returns the queue pair. The
// connection attempt is bounded by DefaultDialTimeout; use DialTimeout
// to choose the deadline.
func Dial(addr string) (rdma.QueuePair, error) {
	return DialTimeout(addr, DefaultDialTimeout)
}

// DialTimeout is Dial with an explicit connection deadline. The
// configured timeout is surfaced in the error so a wedged ring
// construction names the budget that was exceeded.
func DialTimeout(addr string, timeout time.Duration) (rdma.QueuePair, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcplink: dial %s (timeout %v): %w", addr, timeout, err)
	}
	return New(conn), nil
}

// Listener accepts queue pairs.
type Listener struct {
	ln net.Listener
}

// Listen starts listening on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcplink: listen %s: %w", addr, err)
	}
	return &Listener{ln: ln}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Accept waits for one connection and wraps it.
func (l *Listener) Accept() (rdma.QueuePair, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("tcplink: accept: %w", err)
	}
	return New(conn), nil
}

// Close stops listening.
func (l *Listener) Close() error { return l.ln.Close() }

func (l *link) writeLoop() {
	var hdr [hdrLen]byte
	var sum [4]byte
	var parts [3][]byte
	// Batch frame-assembly scratch: every frame of a doorbell batch needs
	// its own header and CRC trailer alive until the single writev, so
	// they are statically sized by maxBatch.
	var bhdrs [maxBatch * hdrLen]byte
	var bsums [maxBatch][4]byte
	var bparts [maxBatch * 3][]byte
	for {
		var wr workReq
		select {
		case <-l.done:
			return
		case wr = <-l.sendQ:
		}
		if wr.batchLen > 0 {
			if !l.writeBatch(&wr, bhdrs[:], &bsums, bparts[:0]) {
				return
			}
			continue
		}
		mSendDepth.Dec()
		payload := wr.buf.Bytes()
		hdr[0] = frameSend
		binary.BigEndian.PutUint32(hdr[1:hdrLen], uint32(len(payload)))
		k := 0
		parts[k] = hdr[:]
		k++
		parts[k] = payload
		k++
		if l.checksum {
			binary.BigEndian.PutUint32(sum[:], crc32.Checksum(payload, castagnoli))
			parts[k] = sum[:]
			k++
		}
		if err := l.writeFrame(parts[:k]); err != nil {
			l.fail(rdma.Completion{Op: rdma.OpSend, Buf: wr.buf, Err: fmt.Errorf("tcplink: write frame: %w", err)})
			return
		}
		mTxFrames.Inc()
		mTxBytes.Add(int64(len(payload)))
		mFrameBytes.Observe(int64(len(payload)))
		wr.pend.Arg = int64(len(payload))
		wr.pend.Aux = int64(len(l.cq))
		l.shard.End(wr.pend)
		l.complete(rdma.Completion{Op: rdma.OpSend, Buf: wr.buf})
	}
}

// writeBatch puts every frame of a doorbell-batched send run on the wire
// with a single writev: all headers, payloads and CRC trailers become one
// iovec list, so a batch of N frames costs one syscall instead of N. One
// OpSend completion is raised per buffer, in order. Reports false on a
// fatal write error (the loop must exit); every batch buffer has received
// its terminal completion by then.
func (l *link) writeBatch(wr *workReq, bhdrs []byte, bsums *[maxBatch][4]byte, parts [][]byte) bool {
	mSendDepth.Add(-int64(wr.batchLen))
	total := 0
	for i := 0; i < wr.batchLen; i++ {
		payload := wr.batchArr[i].Bytes()
		h := bhdrs[i*hdrLen : (i+1)*hdrLen]
		h[0] = frameSend
		binary.BigEndian.PutUint32(h[1:hdrLen], uint32(len(payload)))
		parts = append(parts, h, payload)
		if l.checksum {
			binary.BigEndian.PutUint32(bsums[i][:], crc32.Checksum(payload, castagnoli))
			parts = append(parts, bsums[i][:])
		}
		total += len(payload)
		mFrameBytes.Observe(int64(len(payload)))
	}
	if err := l.writeFrame(parts); err != nil {
		// The dequeued batch is invisible to flush: deliver every
		// buffer's terminal completion here. fail() takes the first (it
		// carries the wire error and tears the link down); the rest are
		// flushed, parked with pendingFail when the CQ is full so no
		// buffer is ever silently lost.
		l.fail(rdma.Completion{Op: rdma.OpSend, Buf: wr.batchArr[0], Err: fmt.Errorf("tcplink: write batch: %w", err)})
		for _, b := range wr.batchArr[1:wr.batchLen] {
			c := rdma.Completion{Op: rdma.OpSend, Buf: b, Err: rdma.ErrFlushed}
			select {
			case l.cq <- c:
			default:
				l.pendMu.Lock()
				l.pendingFail = append(l.pendingFail, c)
				l.pendMu.Unlock()
			}
		}
		return false
	}
	mTxFrames.Add(int64(wr.batchLen))
	mTxBytes.Add(int64(total))
	wr.pend.Arg = int64(total)
	wr.pend.Aux = int64(len(l.cq))
	l.shard.End(wr.pend)
	for i := 0; i < wr.batchLen; i++ {
		l.complete(rdma.Completion{Op: rdma.OpSend, Buf: wr.batchArr[i]})
	}
	return true
}

// writeFrame pushes one frame (header, payload, optional CRC trailer) to
// the socket in a single call. On a TCP connection net.Buffers takes the
// writev fast path, so the whole frame is one syscall with no copy; a
// frame never straddles a partial write boundary of its parts. Generic
// conns (net.Pipe in tests) have no writev path — net.Buffers would
// degrade to one Write per slice — so the parts are coalesced into a
// reusable staging buffer and written once.
//
//cyclolint:hotpath
func (l *link) writeFrame(parts [][]byte) error {
	if l.isTCP {
		bufs := net.Buffers(parts)
		_, err := bufs.WriteTo(l.conn)
		return err
	}
	l.coalesce = l.coalesce[:0]
	for _, p := range parts {
		l.coalesce = append(l.coalesce, p...)
	}
	_, err := l.conn.Write(l.coalesce)
	return err
}

func (l *link) readLoop() {
	var hdr [hdrLen]byte
	for {
		if _, err := io.ReadFull(l.conn, hdr[:]); err != nil {
			l.fail(rdma.Completion{Op: rdma.OpRecv, Err: fmt.Errorf("tcplink: read header: %w", err)})
			return
		}
		if hdr[0] != frameSend {
			l.fail(rdma.Completion{Op: rdma.OpRecv, Err: fmt.Errorf("tcplink: unknown frame type %d", hdr[0])})
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[1:hdrLen]))
		if n > l.maxFrame {
			l.fail(rdma.Completion{Op: rdma.OpRecv, Err: fmt.Errorf("tcplink: frame length %d exceeds limit", n)})
			return
		}
		if !l.readSend(n) {
			return
		}
	}
}

// readSend handles a two-sided message; reports false on fatal error.
func (l *link) readSend(n int) bool {
	var rb *rdma.Buffer
	// Receiver-not-ready: a frame is on the wire but the application has
	// no posted buffer. Only the slow path opens the stall span.
	select {
	case rb = <-l.recvQ:
	default:
		cs := l.shard.Begin(trace.PhaseCreditStall)
		cs.Arg = int64(n)
		select {
		case <-l.done:
			// Close the stall span on shutdown too, so the trace shows how
			// long the frame waited for a buffer that never arrived.
			l.shard.End(cs)
			return false
		case rb = <-l.recvQ:
		}
		l.shard.End(cs)
	}
	if n > rb.Cap() {
		l.fail(rdma.Completion{Op: rdma.OpRecv, Buf: rb,
			Err: fmt.Errorf("%w: message %d B, buffer %d B", rdma.ErrBufferTooSmall, n, rb.Cap())})
		return false
	}
	if _, err := io.ReadFull(l.conn, rb.Data()[:n]); err != nil {
		l.fail(rdma.Completion{Op: rdma.OpRecv, Buf: rb, Err: fmt.Errorf("tcplink: read payload: %w", err)})
		return false
	}
	if !l.verifyChecksum(rb.Data()[:n]) {
		l.fail(rdma.Completion{Op: rdma.OpRecv, Buf: rb, Err: fmt.Errorf("tcplink: payload checksum mismatch")})
		return false
	}
	if err := rb.SetLen(n); err != nil {
		l.fail(rdma.Completion{Op: rdma.OpRecv, Buf: rb, Err: err})
		return false
	}
	mRxFrames.Inc()
	mRxBytes.Add(int64(n))
	l.finishRecv(rb, n)
	l.complete(rdma.Completion{Op: rdma.OpRecv, Buf: rb})
	return true
}

// verifyChecksum reads and checks the trailing CRC when enabled. A read
// failure or mismatch reports false; the caller fails the link.
func (l *link) verifyChecksum(payload []byte) bool {
	if !l.checksum {
		return true
	}
	var sum [4]byte
	if _, err := io.ReadFull(l.conn, sum[:]); err != nil {
		return false
	}
	if binary.BigEndian.Uint32(sum[:]) != crc32.Checksum(payload, castagnoli) {
		mCRCFailures.Inc()
		return false
	}
	return true
}

// validate rejects, at post time, a payload the wire format cannot
// carry: the length header field is 4 bytes, so an oversized payload
// would silently wrap and corrupt the stream if allowed through. The
// limit also mirrors the receiver's maxFrame guard, so a frame the peer
// would kill the connection over is refused locally with a typed error
// instead.
//
//cyclolint:hotpath
func (l *link) validate(b *rdma.Buffer) error {
	if b.Len() > l.maxFrame {
		mPostRejects.Inc()
		//cyclolint:coldpath rejected post: caller handles the error off the fast path
		return fmt.Errorf("%w: payload %d B, limit %d B", ErrFrameTooLarge, b.Len(), l.maxFrame)
	}
	return nil
}

// PostSend implements rdma.QueuePair: it queues a validated send,
// opening its residency span.
//
//cyclolint:hotpath
func (l *link) PostSend(b *rdma.Buffer) error {
	if err := l.validate(b); err != nil {
		return err
	}
	select {
	case <-l.done:
		return rdma.ErrClosed
	default:
	}
	select {
	case <-l.done:
		return rdma.ErrClosed
	case l.sendQ <- workReq{buf: b, pend: l.shard.Begin(trace.PhaseWRSend)}:
		mSendDepth.Inc()
		return nil
	}
}

// complete delivers one completion to the application's CQ.
//
//cyclolint:hotpath
func (l *link) complete(c rdma.Completion) {
	select {
	case l.cq <- c:
		mCompletions.Inc()
	case <-l.done:
	}
}

// fail reports a fatal link error (once) and tears the connection down so
// the peer loops unblock. The completion queue itself is closed by Close.
func (l *link) fail(c rdma.Completion) {
	l.failOnce.Do(func() {
		select {
		case l.cq <- c:
		default:
			// CQ full during teardown. The completion may carry a
			// consumed receive buffer, so it must not be dropped: park
			// it for Close's flush pass instead.
			l.pendMu.Lock()
			l.pendingFail = append(l.pendingFail, c)
			l.pendMu.Unlock()
		}
		close(l.done)
		// Unblock the other loop's conn reads/writes.
		_ = l.conn.Close()
	})
}

// flush returns every still-posted work request's buffer to the
// application as an ErrFlushed completion (the verbs WR_FLUSH_ERR
// discipline). Called by Close after both loops have exited, so the
// queues are quiescent. Delivery is best-effort non-blocking — the CQ is
// as deep as the post queues combined is shallow in practice — and any
// completion that still cannot be delivered is counted, never silently
// lost.
func (l *link) flush() {
	deliver := func(c rdma.Completion) {
		select {
		case l.cq <- c:
			mFlushed.Inc()
		default:
			mFlushDrops.Inc()
		}
	}
	l.pendMu.Lock()
	parked := l.pendingFail
	l.pendingFail = nil
	l.pendMu.Unlock()
	for _, c := range parked {
		deliver(c)
	}
drainSends:
	for {
		select {
		case wr := <-l.sendQ:
			l.shard.End(wr.pend)
			if wr.batchLen > 0 {
				mSendDepth.Add(-int64(wr.batchLen))
				for _, b := range wr.batchArr[:wr.batchLen] {
					deliver(rdma.Completion{Op: rdma.OpSend, Buf: b, Err: rdma.ErrFlushed})
				}
				continue
			}
			mSendDepth.Dec()
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

// PostSendBatch implements rdma.QueuePair: the run is validated and
// handed to writeLoop in maxBatch-sized chunks, one queue operation and
// one writev per chunk. Prefix-atomic: on a validation reject at position
// i, buffers 0..i-1 are posted (and will complete) and the error names i.
//
//cyclolint:hotpath
func (l *link) PostSendBatch(bufs []*rdma.Buffer) error {
	// Validate the whole run first so a reject poisons nothing after it.
	post := len(bufs)
	var verr error
	for i, b := range bufs {
		if err := l.validate(b); err != nil {
			//cyclolint:coldpath rejected post: caller handles the error off the fast path
			post, verr = i, fmt.Errorf("tcplink: batch send %d/%d: %w", i, len(bufs), err)
			break
		}
	}
	for off := 0; off < post; off += maxBatch {
		n := post - off
		if n > maxBatch {
			n = maxBatch
		}
		select {
		case <-l.done:
			return rdma.ErrClosed
		default:
		}
		wr := workReq{batchLen: n, pend: l.shard.Begin(trace.PhaseWRSend)}
		copy(wr.batchArr[:n], bufs[off:off+n])
		select {
		case <-l.done:
			l.shard.End(wr.pend)
			return rdma.ErrClosed
		case l.sendQ <- wr:
			mSendDepth.Add(int64(n))
		}
	}
	return verr
}

// PostRecvBatch implements rdma.QueuePair. Receive buffers are
// consumed one at a time by the read loop, so the batch form is a single
// shutdown check plus the per-buffer enqueues — prefix-atomic on error.
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
		select {
		case <-l.done:
			l.dropRecvStamp(b)
			//cyclolint:coldpath link teardown: the queue pair is closing
			return fmt.Errorf("tcplink: batch recv %d/%d: %w", i, len(bufs), rdma.ErrClosed)
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

// PostRecv implements rdma.QueuePair.
func (l *link) PostRecv(b *rdma.Buffer) error {
	// Check shutdown first: with a closed done channel and free queue
	// space, a bare select would choose nondeterministically.
	select {
	case <-l.done:
		return rdma.ErrClosed
	default:
	}
	// Stamp the residency span BEFORE the buffer becomes visible to the
	// read loop: once enqueued, finishRecv may run immediately.
	l.stampRecv(b)
	select {
	case <-l.done:
		l.dropRecvStamp(b)
		return rdma.ErrClosed
	case l.recvQ <- b:
		return nil
	}
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

// finishRecv closes the buffer's WRRecv span when a frame lands in it.
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

// BufferedWire implements rdma.BufferedTransport: a send completion
// means the frame reached the kernel socket buffer, not the peer's
// posted receive buffer, so delivered-at-sender frames can still be in
// flight on the wire.
func (l *link) BufferedWire() bool { return true }

// Completions implements rdma.QueuePair.
func (l *link) Completions() <-chan rdma.Completion { return l.cq }

// Close implements rdma.QueuePair.
func (l *link) Close() error {
	l.closeOnce.Do(func() {
		l.failOnce.Do(func() {
			close(l.done)
			_ = l.conn.Close()
		})
		l.wg.Wait()
		l.flush()
		close(l.cq)
	})
	return nil
}
