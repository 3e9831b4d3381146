package memlink

import (
	"testing"

	"cyclojoin/internal/rdma"
	"cyclojoin/internal/rdma/rdmatest"
)

func TestConformance(t *testing.T) {
	rdmatest.Run(t, func(t *testing.T) (rdma.QueuePair, rdma.QueuePair) {
		return Pair()
	})
}

// TestZeroCopySemantics verifies the payload lands in the exact buffer the
// receiver posted — direct data placement, not delivery of a fresh slice.
func TestZeroCopySemantics(t *testing.T) {
	a, b := Pair()
	defer func() {
		_ = a.Close()
		_ = b.Close()
	}()
	dev := rdma.OpenDevice("t")
	rb, err := dev.Register(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PostRecv(rb); err != nil {
		t.Fatal(err)
	}
	sb, err := dev.Register(32)
	if err != nil {
		t.Fatal(err)
	}
	copy(sb.Data(), "ddp")
	if err := sb.SetLen(3); err != nil {
		t.Fatal(err)
	}
	if err := a.PostSend(sb); err != nil {
		t.Fatal(err)
	}
	var rc rdma.Completion
	for rc.Op != rdma.OpRecv {
		c, ok := <-b.Completions()
		if !ok {
			t.Fatal("cq closed")
		}
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if c.Op == rdma.OpRecv {
			rc = c
		} else if c.Op == rdma.OpSend {
			continue
		}
	}
	if rc.Buf != rb {
		t.Fatal("receive completed into a buffer the application did not post")
	}
	if string(rb.Data()[:3]) != "ddp" {
		t.Fatalf("posted buffer does not contain the payload: %q", rb.Data()[:3])
	}
}
