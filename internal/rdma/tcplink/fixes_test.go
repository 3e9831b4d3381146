package tcplink

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclojoin/internal/rdma"
	"cyclojoin/internal/testutil"
)

// countingConn records every Write so framing behaviour is observable.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	bytes  int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.bytes += len(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) snapshot() (writes, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.bytes
}

// register allocates a buffer holding n payload bytes.
func register(t *testing.T, n int) *rdma.Buffer {
	t.Helper()
	b, err := rdma.OpenDevice("t").Register(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetLen(n); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSingleWriteFraming checks that one posted frame results in exactly
// one conn.Write — header, payload and CRC trailer coalesced — instead
// of the 2–3 separate writes the old writeLoop issued.
func TestSingleWriteFraming(t *testing.T) {
	for _, checksum := range []bool{false, true} {
		name := "plain"
		if checksum {
			name = "checksummed"
		}
		t.Run(name, func(t *testing.T) {
			c1, c2 := net.Pipe()
			cc := &countingConn{Conn: c1}
			a := newLink(cc, checksum, defaultMaxFrame)
			var b rdma.QueuePair
			if checksum {
				b = NewChecksummed(c2)
			} else {
				b = New(c2)
			}
			defer func() {
				_ = a.Close()
				_ = b.Close()
			}()

			const frames = 3
			const payload = 100
			if err := b.PostRecv(register(t, payload)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < frames; i++ {
				sb := register(t, payload)
				if err := a.PostSend(sb); err != nil {
					t.Fatal(err)
				}
				// Wait for the send completion so the frame is fully on
				// the wire before counting.
				select {
				case c := <-a.Completions():
					if c.Err != nil {
						t.Fatal(c.Err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("no send completion")
				}
				// Keep the receiver consuming.
				select {
				case c := <-b.Completions():
					if c.Err != nil {
						t.Fatal(c.Err)
					}
					if err := b.PostRecv(c.Buf); err != nil {
						t.Fatal(err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("no receive completion")
				}
			}
			writes, bytes := cc.snapshot()
			if writes != frames {
				t.Errorf("%d frames took %d conn.Write calls, want %d (one per frame)", frames, writes, frames)
			}
			wantFrame := 5 + payload
			if checksum {
				wantFrame += 4
			}
			if bytes != frames*wantFrame {
				t.Errorf("wire volume = %d B, want %d B", bytes, frames*wantFrame)
			}
		})
	}
}

// TestOversizedSendRejected checks that a payload over the frame limit is
// refused at post time with ErrFrameTooLarge and that nothing reaches
// the wire.
func TestOversizedSendRejected(t *testing.T) {
	c1, c2 := net.Pipe()
	cc := &countingConn{Conn: c1}
	a := newLink(cc, false, 64)
	defer func() {
		_ = a.Close()
		_ = c2.Close()
	}()
	err := a.PostSend(register(t, 65))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("PostSend(65 B past a 64 B limit) = %v, want ErrFrameTooLarge", err)
	}
	if writes, _ := cc.snapshot(); writes != 0 {
		t.Errorf("rejected frame still caused %d writes", writes)
	}
	// The link stays usable: a frame within the limit goes through.
	if err := a.PostSend(register(t, 64)); err != nil {
		t.Errorf("in-range PostSend after rejection: %v", err)
	}
}

// TestDialTimeout checks that Dial is bounded by a deadline and that the
// error names the configured timeout.
func TestDialTimeout(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = ln.Close()
	}()
	// A 1 ns budget expires before even a loopback connect completes, so
	// this deterministically exercises the timeout path.
	start := time.Now()
	_, err = DialTimeout(ln.Addr(), time.Nanosecond)
	if err == nil {
		t.Fatal("DialTimeout(1ns): want error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("DialTimeout(1ns) took %v; the deadline did not bound the dial", elapsed)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("DialTimeout error = %v, want a net timeout error", err)
	}
	if !strings.Contains(err.Error(), "timeout 1ns") {
		t.Errorf("error %q does not surface the configured deadline", err)
	}
}

// badFrameCase injects one hand-built malformed frame into the raw side
// of the connection and describes what the link should do with it.
type badFrameCase struct {
	name     string
	checksum bool
	// frame is the raw bytes pushed at the link's read loop. closeAfter
	// truncates the stream afterwards (a torn connection mid-payload).
	frame      func() []byte
	closeAfter bool
	// unknownType says the link must fail through the unknown-frame path,
	// before it reads anything past the type byte.
	unknownType bool
}

// TestBadFramesReturnEveryCredit is the receive-credit leak audit for the
// read loop's error paths: whatever malformed input kills the link, every
// posted receive buffer must come back through the completion queue —
// either inside the fatal error completion (the consumed credit) or as
// ErrFlushed from Close. A dropped credit here starves the ring's receive
// pool after recovery re-dials the link.
func TestBadFramesReturnEveryCredit(t *testing.T) {
	goodPayload := func(kind byte, n int) []byte {
		f := make([]byte, 5+n)
		f[0] = kind
		binary.BigEndian.PutUint32(f[1:5], uint32(n))
		return f
	}
	cases := []badFrameCase{
		{
			name: "unknown frame type",
			frame: func() []byte {
				return goodPayload(0xee, 0)[:5]
			},
			unknownType: true,
		},
		// Types 1 and 2 once carried one-sided writes (with and without an
		// immediate) and a longer header; now they are frames like any
		// other unknown type.
		{
			name: "write frame type 1",
			frame: func() []byte {
				return goodPayload(1, 4+8)
			},
			unknownType: true,
		},
		{
			name: "write-with-immediate frame type 2",
			frame: func() []byte {
				return goodPayload(2, 4+12)
			},
			unknownType: true,
		},
		// A write header cut short by a torn stream: the type byte alone
		// fails the link, before the missing header bytes are awaited.
		{
			name: "short write header",
			frame: func() []byte {
				return goodPayload(2, 4)[:7]
			},
			closeAfter:  true,
			unknownType: true,
		},
		{
			name: "length over limit",
			frame: func() []byte {
				f := goodPayload(frameSend, 0)[:5]
				binary.BigEndian.PutUint32(f[1:5], uint32(defaultMaxFrame+1))
				return f
			},
		},
		{
			name:     "checksum mismatch",
			checksum: true,
			frame: func() []byte {
				f := goodPayload(frameSend, 8)
				copy(f[5:], "01234567")
				// Trailer deliberately wrong.
				return append(f, 0xde, 0xad, 0xbe, 0xef)
			},
		},
		{
			name: "torn mid-payload",
			frame: func() []byte {
				f := goodPayload(frameSend, 64)
				return f[:5+10] // announce 64 B, deliver 10
			},
			closeAfter: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckNoLeaks(t)
			raw, side := net.Pipe()
			l := newLink(side, tc.checksum, defaultMaxFrame)

			posted := []*rdma.Buffer{register(t, 64), register(t, 64)}
			for _, b := range posted {
				if err := l.PostRecv(b); err != nil {
					t.Fatal(err)
				}
			}
			go func() {
				_, _ = raw.Write(tc.frame())
				if tc.closeAfter {
					_ = raw.Close()
				}
			}()

			// The fatal error completion arrives first; Close then flushes
			// whatever the failure did not consume.
			var got []rdma.Completion
			deadline := time.After(5 * time.Second)
			for sawError := false; !sawError; {
				select {
				case c, ok := <-l.Completions():
					if !ok {
						t.Fatal("CQ closed before the failure surfaced")
					}
					got = append(got, c)
					sawError = c.Err != nil
					if sawError && tc.unknownType && !strings.Contains(c.Err.Error(), "unknown frame type") {
						t.Errorf("link failed with %v, want the unknown-frame error", c.Err)
					}
				case <-deadline:
					t.Fatal("malformed frame never surfaced an error completion")
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			for c := range l.Completions() {
				got = append(got, c)
			}
			_ = raw.Close()

			returned := map[*rdma.Buffer]int{}
			for _, c := range got {
				if c.Buf != nil {
					returned[c.Buf]++
				}
			}
			for i, b := range posted {
				switch returned[b] {
				case 1:
				case 0:
					t.Errorf("posted receive buffer %d never returned through the CQ (credit leaked)", i)
				default:
					t.Errorf("posted receive buffer %d returned %d times", i, returned[b])
				}
			}
		})
	}
}

// TestListenerCloseUnblocksAccept: closing the listener mid-Accept must
// error out the pending Accept promptly instead of stranding its
// goroutine — the ring's teardown path closes listeners with dials still
// possibly in flight.
func TestListenerCloseUnblocksAccept(t *testing.T) {
	testutil.CheckNoLeaks(t)
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		accepted <- err
	}()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-accepted:
		if err == nil {
			t.Fatal("Accept returned a connection after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept still blocked 5s after Close")
	}
}
