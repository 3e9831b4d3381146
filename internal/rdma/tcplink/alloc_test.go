package tcplink

import (
	"net"
	"testing"

	"cyclojoin/internal/rdma/rdmatest"
)

// TestRoundTripAllocatesNothing guards the zero-allocation transport
// path over loopback TCP: posting a batch of receives and a batch of
// sends and reaping all their completions allocates nothing — not in the
// caller, not in the writev path, not in the read loop — with and
// without the CRC trailer.
func TestRoundTripAllocatesNothing(t *testing.T) {
	for _, checksum := range []bool{false, true} {
		name := "plain"
		if checksum {
			name = "checksummed"
		}
		t.Run(name, func(t *testing.T) {
			ca, cb := loopbackConns(t)
			a := newLink(ca, checksum, defaultMaxFrame)
			b := newLink(cb, checksum, defaultMaxFrame)
			defer func() {
				_ = a.Close()
				_ = b.Close()
			}()
			if got := rdmatest.RoundTripAllocs(t, a, b); got != 0 {
				t.Errorf("a 4-frame batch round trip allocates %.1f times, want 0", got)
			}
		})
	}
}

// loopbackConns returns the two ends of one loopback TCP connection.
func loopbackConns(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = ln.Close()
	}()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-accepted
	if acc == nil {
		_ = dialed.Close()
		t.Fatal("accept failed")
	}
	return dialed, acc
}
