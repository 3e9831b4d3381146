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
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/rdma/wq"
	"cyclojoin/internal/trace"
)

// linkSeq names flight-recorder tracks across all links in the process.
var linkSeq atomic.Int64

// castagnoli is the CRC-32C table (the polynomial iWARP's MPA layer uses).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// defaultMaxFrame bounds payload sizes in both directions: at the
// receiver it guards against corrupt length prefixes, at the sender it
// keeps payload lengths far away from the uint32 wire field's wrap
// point (a ≥ 4 GiB payload would otherwise truncate silently and
// corrupt the stream). Tests shrink the limit via newLink.
const defaultMaxFrame = 1 << 30

// ErrFrameTooLarge is returned by PostSend/PostSendBatch when the payload
// exceeds the maximum frame size. The work request is rejected before
// anything reaches the wire.
var ErrFrameTooLarge = wq.ErrTooLarge

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
	mCRCFailures = metrics.Default().Counter("tcplink_checksum_failures_total", "CRC-32C payload mismatches detected at the receiver")
	mFrameBytes  = metrics.Default().Histogram("tcplink_frame_bytes", "transmitted frame payload sizes",
		metrics.ExponentialBounds(1024, 4, 10))
	queueMetrics = wq.Metrics{
		Completions: metrics.Default().Counter("tcplink_completions_total", "completions delivered to applications"),
		Rejects:     metrics.Default().Counter("tcplink_post_rejects_total", "work requests rejected by sender-side validation"),
		Flushed:     metrics.Default().Counter("tcplink_flushed_total", "posted work requests flushed with an error completion at shutdown"),
		FlushDrops:  metrics.Default().Counter("tcplink_flush_drops_total", "flush completions dropped because the completion queue was full at shutdown"),
		SendDepth:   metrics.Default().Gauge("tcplink_send_queue_depth", "posted work requests not yet on the wire"),
	}
)

// frameSend is the one frame type; any other type byte fails the link.
const frameSend = 0

// hdrLen is the frame header: the type byte plus the payload length.
const hdrLen = 5

// link is one endpoint: the shared work queues plus the framing loops
// that carry them over the connection.
type link struct {
	*wq.Queue
	conn     net.Conn
	checksum bool
	// maxFrame is the largest payload accepted in either direction
	// (defaultMaxFrame outside tests).
	maxFrame int
	// isTCP selects the net.Buffers writev fast path.
	isTCP bool

	// Frame-assembly scratch, owned by writeLoop: every frame of a work
	// request needs its header and CRC trailer alive until the single
	// writev, so they are sized by wq.MaxBatch; iov is the writev vector
	// itself, kept here so the write path allocates nothing. coalesce
	// stages the frames into one Write for conns that lack a writev fast
	// path (net.Pipe in tests).
	hdrs     [wq.MaxBatch * hdrLen]byte
	sums     [wq.MaxBatch][4]byte
	parts    [wq.MaxBatch * 3][]byte
	iov      net.Buffers
	coalesce []byte

	// rsum is readLoop's CRC trailer scratch.
	rsum [4]byte
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
	}
	shard := trace.Flight().Shard(trace.NodeTransport, "tcplink/"+strconv.FormatInt(linkSeq.Add(1), 10))
	l.Queue = wq.New(wq.Config{Shard: shard, MaxLen: maxFrame, Stop: conn, Metrics: queueMetrics})
	l.Loops.Add(2)
	go func() {
		defer l.Loops.Done()
		l.writeLoop()
	}()
	go func() {
		defer l.Loops.Done()
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

// writeLoop puts every frame of a work request on the wire with a single
// writev: all headers, payloads and CRC trailers become one iovec list,
// so a batch of N frames costs one syscall instead of N. One OpSend
// completion is raised per buffer, in order.
func (l *link) writeLoop() {
	var wr wq.WR
	for l.NextSend(&wr) {
		bufs := wr.Bufs()
		k, total := 0, 0
		for i, b := range bufs {
			payload := b.Bytes()
			h := l.hdrs[i*hdrLen : (i+1)*hdrLen]
			h[0] = frameSend
			binary.BigEndian.PutUint32(h[1:], uint32(len(payload)))
			l.parts[k], l.parts[k+1] = h, payload
			k += 2
			if l.checksum {
				binary.BigEndian.PutUint32(l.sums[i][:], crc32.Checksum(payload, castagnoli))
				l.parts[k] = l.sums[i][:]
				k++
			}
			total += len(payload)
			mFrameBytes.Observe(int64(len(payload)))
		}
		if err := l.writeFrames(k); err != nil {
			l.Abort(&wr, 0, 0, fmt.Errorf("tcplink: write batch: %w", err))
			return
		}
		mTxFrames.Add(int64(len(bufs)))
		mTxBytes.Add(int64(total))
		for i := range bufs {
			l.Sent(&wr, i, total, nil)
		}
	}
}

// writeFrames pushes the first k assembled parts to the socket in a
// single call. On a TCP connection net.Buffers takes the writev fast
// path, so the whole run is one syscall with no copy; a frame never
// straddles a partial write boundary of its parts. Generic conns
// (net.Pipe in tests) have no writev path — net.Buffers would degrade to
// one Write per slice — so the parts are coalesced into a reusable
// staging buffer and written once.
//
//cyclolint:hotpath
func (l *link) writeFrames(k int) error {
	if l.isTCP {
		l.iov = l.parts[:k]
		_, err := l.iov.WriteTo(l.conn)
		return err
	}
	l.coalesce = l.coalesce[:0]
	for _, p := range l.parts[:k] {
		l.coalesce = append(l.coalesce, p...)
	}
	_, err := l.conn.Write(l.coalesce)
	return err
}

func (l *link) readLoop() {
	var hdr [hdrLen]byte
	for {
		if _, err := io.ReadFull(l.conn, hdr[:]); err != nil {
			l.Fail(rdma.Completion{Op: rdma.OpRecv, Err: fmt.Errorf("tcplink: read header: %w", err)})
			return
		}
		if hdr[0] != frameSend {
			l.Fail(rdma.Completion{Op: rdma.OpRecv, Err: fmt.Errorf("tcplink: unknown frame type %d", hdr[0])})
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[1:hdrLen]))
		if n > l.maxFrame {
			l.Fail(rdma.Completion{Op: rdma.OpRecv, Err: fmt.Errorf("tcplink: frame length %d exceeds limit", n)})
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
	case rb = <-l.Recvs():
	default:
		cs := l.Shard().Begin(trace.PhaseCreditStall)
		cs.Arg = int64(n)
		select {
		case <-l.Done():
			// Close the stall span on shutdown too, so the trace shows how
			// long the frame waited for a buffer that never arrived.
			l.Shard().End(cs)
			return false
		case rb = <-l.Recvs():
		}
		l.Shard().End(cs)
	}
	if err := rb.SetLen(n); err != nil {
		l.Fail(rdma.Completion{Op: rdma.OpRecv, Buf: rb,
			Err: fmt.Errorf("%w: message %d B, buffer %d B", rdma.ErrBufferTooSmall, n, rb.Cap())})
		return false
	}
	if _, err := io.ReadFull(l.conn, rb.Bytes()); err != nil {
		l.Fail(rdma.Completion{Op: rdma.OpRecv, Buf: rb, Err: fmt.Errorf("tcplink: read payload: %w", err)})
		return false
	}
	if !l.verifyChecksum(rb.Bytes()) {
		l.Fail(rdma.Completion{Op: rdma.OpRecv, Buf: rb, Err: fmt.Errorf("tcplink: payload checksum mismatch")})
		return false
	}
	mRxFrames.Inc()
	mRxBytes.Add(int64(n))
	l.FinishRecv(rb, n)
	l.Complete(rdma.Completion{Op: rdma.OpRecv, Buf: rb})
	return true
}

// verifyChecksum reads and checks the trailing CRC when enabled. A read
// failure or mismatch reports false; the caller fails the link.
func (l *link) verifyChecksum(payload []byte) bool {
	if !l.checksum {
		return true
	}
	if _, err := io.ReadFull(l.conn, l.rsum[:]); err != nil {
		return false
	}
	if binary.BigEndian.Uint32(l.rsum[:]) != crc32.Checksum(payload, castagnoli) {
		mCRCFailures.Inc()
		return false
	}
	return true
}

// BufferedWire implements rdma.BufferedTransport: a send completion
// means the frame reached the kernel socket buffer, not the peer's
// posted receive buffer, so delivered-at-sender frames can still be in
// flight on the wire.
func (l *link) BufferedWire() bool { return true }
