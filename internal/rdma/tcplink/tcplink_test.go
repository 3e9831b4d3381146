package tcplink

import (
	"net"
	"testing"
	"time"

	"cyclojoin/internal/rdma"
	"cyclojoin/internal/rdma/rdmatest"
	"cyclojoin/internal/testutil"
)

// TestConformancePipe runs the suite over an in-memory net.Pipe.
func TestConformancePipe(t *testing.T) {
	testutil.CheckNoLeaks(t)
	rdmatest.Run(t, func(t *testing.T) (rdma.QueuePair, rdma.QueuePair) {
		c1, c2 := net.Pipe()
		return New(c1), New(c2)
	})
}

// TestConformanceLoopback runs the suite over real TCP sockets.
func TestConformanceLoopback(t *testing.T) {
	testutil.CheckNoLeaks(t)
	rdmatest.Run(t, func(t *testing.T) (rdma.QueuePair, rdma.QueuePair) {
		ln, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			_ = ln.Close()
		}()
		type accepted struct {
			qp  rdma.QueuePair
			err error
		}
		ch := make(chan accepted, 1)
		go func() {
			qp, err := ln.Accept()
			ch <- accepted{qp, err}
		}()
		dialer, err := Dial(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		acc := <-ch
		if acc.err != nil {
			t.Fatal(acc.err)
		}
		return dialer, acc.qp
	})
}

func TestDialRefused(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("Dial to closed port: want error")
	}
}

func TestListenBadAddr(t *testing.T) {
	if _, err := Listen("256.0.0.1:0"); err == nil {
		t.Error("Listen on bad address: want error")
	}
}

// TestPeerDisconnectSurfacesError checks that a hard peer close produces an
// error completion rather than a hang.
func TestPeerDisconnectSurfacesError(t *testing.T) {
	c1, c2 := net.Pipe()
	a := New(c1)
	defer func() {
		_ = a.Close()
	}()
	dev := rdma.OpenDevice("t")
	rb, err := dev.Register(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PostRecv(rb); err != nil {
		t.Fatal(err)
	}
	_ = c2.Close() // peer dies
	select {
	case c, ok := <-a.Completions():
		if ok && c.Err == nil {
			t.Error("want error completion after peer disconnect")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no completion after peer disconnect")
	}
}
