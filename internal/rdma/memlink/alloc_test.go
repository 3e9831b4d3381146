package memlink

import (
	"testing"

	"cyclojoin/internal/rdma/rdmatest"
)

// TestRoundTripAllocatesNothing guards the zero-allocation transport
// path: posting a batch of receives and a batch of sends and reaping all
// their completions allocates nothing, in the caller or in the DMA
// goroutine.
func TestRoundTripAllocatesNothing(t *testing.T) {
	a, b := Pair()
	defer func() {
		_ = a.Close()
		_ = b.Close()
	}()
	if got := rdmatest.RoundTripAllocs(t, a, b); got != 0 {
		t.Errorf("a 4-frame batch round trip allocates %.1f times, want 0", got)
	}
}
