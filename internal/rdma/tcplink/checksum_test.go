package tcplink

import (
	"net"
	"sync"
	"testing"
	"time"

	"cyclojoin/internal/rdma"
	"cyclojoin/internal/rdma/rdmatest"
)

// TestChecksummedConformance: the checksummed variant must satisfy the
// exact same transport semantics.
func TestChecksummedConformance(t *testing.T) {
	rdmatest.Run(t, func(t *testing.T) (rdma.QueuePair, rdma.QueuePair) {
		c1, c2 := net.Pipe()
		return NewChecksummed(c1), NewChecksummed(c2)
	})
}

// corruptingConn flips one payload byte after `after` bytes have passed.
type corruptingConn struct {
	net.Conn
	mu      sync.Mutex
	after   int
	written int
	done    bool
}

func (c *corruptingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if !c.done && c.written+len(b) > c.after {
		idx := c.after - c.written
		if idx >= 0 && idx < len(b) {
			mutated := append([]byte(nil), b...)
			mutated[idx] ^= 0xff
			b = mutated
			c.done = true
		}
	}
	c.written += len(b)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// TestChecksumDetectsCorruption: a bit flip on the wire must surface as a
// link error, never as silently corrupted data.
func TestChecksumDetectsCorruption(t *testing.T) {
	p1, p2 := net.Pipe()
	// Corrupt a byte well inside the first frame's payload (header is
	// 5 bytes; payload starts after it).
	sender := NewChecksummed(&corruptingConn{Conn: p1, after: 20})
	receiver := NewChecksummed(p2)
	defer func() {
		_ = sender.Close()
		_ = receiver.Close()
	}()
	dev := rdma.OpenDevice("t")
	rb, err := dev.Register(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := receiver.PostRecv(rb); err != nil {
		t.Fatal(err)
	}
	sb, err := dev.Register(128)
	if err != nil {
		t.Fatal(err)
	}
	copy(sb.Data(), "a payload that will get one byte flipped in transit")
	if err := sb.SetLen(52); err != nil {
		t.Fatal(err)
	}
	if err := sender.PostSend(sb); err != nil {
		t.Fatal(err)
	}
	select {
	case c, ok := <-receiver.Completions():
		if ok && c.Err == nil {
			t.Fatal("corrupted frame delivered without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no completion after corruption")
	}
}

// TestNoChecksumMissesCorruption documents the baseline: without CRC the
// flip goes through silently — which is why the option exists.
func TestNoChecksumMissesCorruption(t *testing.T) {
	p1, p2 := net.Pipe()
	sender := New(&corruptingConn{Conn: p1, after: 20})
	receiver := New(p2)
	defer func() {
		_ = sender.Close()
		_ = receiver.Close()
	}()
	dev := rdma.OpenDevice("t")
	rb, err := dev.Register(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := receiver.PostRecv(rb); err != nil {
		t.Fatal(err)
	}
	sb, err := dev.Register(128)
	if err != nil {
		t.Fatal(err)
	}
	payload := "a payload that will get one byte flipped in transit"
	copy(sb.Data(), payload)
	if err := sb.SetLen(len(payload)); err != nil {
		t.Fatal(err)
	}
	if err := sender.PostSend(sb); err != nil {
		t.Fatal(err)
	}
	select {
	case c, ok := <-receiver.Completions():
		if !ok || c.Err != nil {
			t.Fatalf("unexpected failure: %v", c.Err)
		}
		if string(c.Buf.Bytes()) == payload {
			t.Fatal("expected the corrupted payload to differ")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no completion")
	}
}
