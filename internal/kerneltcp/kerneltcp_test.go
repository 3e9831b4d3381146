package kerneltcp

import (
	"net"
	"testing"
	"time"

	"cyclojoin/internal/rdma"
	"cyclojoin/internal/rdma/rdmatest"
)

// TestConformance: the kernel-TCP baseline must be a drop-in replacement
// for the RDMA transports (§V-G swaps it under the unchanged ring runtime).
func TestConformance(t *testing.T) {
	rdmatest.Run(t, func(t *testing.T) (rdma.QueuePair, rdma.QueuePair) {
		c1, c2 := net.Pipe()
		a, _ := New(c1)
		b, _ := New(c2)
		return a, b
	})
}

// TestStatsCountCopies verifies the defining property of the baseline: every
// message costs one user→kernel copy at the sender and one kernel→user copy
// at the receiver, of exactly the payload volume.
func TestStatsCountCopies(t *testing.T) {
	c1, c2 := net.Pipe()
	a, aStats := New(c1)
	b, bStats := New(c2)
	defer func() {
		_ = a.Close()
		_ = b.Close()
	}()
	dev := rdma.OpenDevice("t")

	const msgs, size = 10, 100
	for i := 0; i < msgs; i++ {
		rb, err := dev.Register(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.PostRecv(rb); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		for i := 0; i < msgs; i++ {
			sb, err := dev.Register(size)
			if err != nil {
				return
			}
			if err := sb.SetLen(size); err != nil {
				return
			}
			if err := a.PostSend(sb); err != nil {
				return
			}
		}
	}()
	got := 0
	deadline := time.After(5 * time.Second)
	for got < msgs {
		select {
		case c, ok := <-b.Completions():
			if !ok {
				t.Fatal("cq closed")
			}
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			if c.Op == rdma.OpRecv {
				got++
			}
		case <-deadline:
			t.Fatalf("received %d/%d", got, msgs)
		}
	}
	if n := aStats.Copies.Load(); n != msgs {
		t.Errorf("sender copies = %d, want %d", n, msgs)
	}
	if n := bStats.Copies.Load(); n != msgs {
		t.Errorf("receiver copies = %d, want %d", n, msgs)
	}
	if v := aStats.BytesCopied.Load(); v != msgs*size {
		t.Errorf("sender bytes copied = %d, want %d", v, msgs*size)
	}
	if v := bStats.BytesCopied.Load(); v != msgs*size {
		t.Errorf("receiver bytes copied = %d, want %d", v, msgs*size)
	}
	if aStats.ContextSwitches.Load() == 0 || bStats.ContextSwitches.Load() == 0 {
		t.Error("context switches not counted")
	}
}
