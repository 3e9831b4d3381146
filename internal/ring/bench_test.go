package ring

import (
	"testing"

	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

// benchRing measures full revolutions of one fragment per node. Each Run
// performs nodes×nodes Process calls and nodes×(nodes-1) wire hops; the
// per-hop figures reported here (ns/hop, allocs divided by hops) are the
// numbers BENCH_ring.json tracks across PRs.
func benchRing(b *testing.B, cfg Config, tuples int) {
	b.Helper()
	procs := make([]Processor, cfg.Nodes)
	for i := range procs {
		procs[i] = ProcessorFunc(func(frag *relation.Fragment) error {
			// Touch every key, as a join entity would.
			var sum uint64
			for _, k := range frag.Rel.Keys() {
				sum += k
			}
			sink = sum
			return nil
		})
	}
	r, err := New(cfg, nil, procs)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	rel := workload.Sequential("R", tuples, 8)
	frags, err := relation.Partition(rel, cfg.Nodes)
	if err != nil {
		b.Fatal(err)
	}
	pn := perNode(frags)
	// Warm-up revolution so pools and links reach steady state.
	if err := r.Run(pn); err != nil {
		b.Fatal(err)
	}
	hopsPerRun := cfg.Nodes * (cfg.Nodes - 1) // wire hops per Run
	if hopsPerRun == 0 {
		hopsPerRun = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(pn); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hopsPerRun), "ns/hop")
}

// sink defeats dead-code elimination in the benchmark processors.
var sink uint64

func BenchmarkRingHop(b *testing.B) {
	benchRing(b, Config{Nodes: 4, BufferSlots: 4, BufferBytes: 1 << 20}, 8192)
}

// BenchmarkForwardStage isolates the per-hop staging work on the zero-copy
// path: bind the received frame as a view, pin, copy it into a send buffer
// with the hops field patched, release the receive credit. On little-endian
// hosts it must not allocate — the benchmark fails otherwise, which is the
// regression guard for the "zero heap allocations per forwarded fragment"
// property.
func BenchmarkForwardStage(b *testing.B) {
	n := newNode("test", 0, Config{Nodes: 2}, nil, nil, make(chan error, 4))
	recv, err := n.dev.RegisterPool(1, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	send, err := n.dev.RegisterPool(1, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	rbuf, sbuf := recv[0], send[0]
	n.recvBufs = recv
	n.views[rbuf] = new(relation.View)
	n.repostQP = &cqOnly{}

	rel := workload.Sequential("R", 8192, 8)
	frags, err := relation.Partition(rel, 1)
	if err != nil {
		b.Fatal(err)
	}
	sz, err := relation.Encode(frags[0], rbuf.Data())
	if err != nil {
		b.Fatal(err)
	}
	if err := rbuf.SetLen(sz); err != nil {
		b.Fatal(err)
	}

	b.SetBytes(int64(sz))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := n.views[rbuf]
		if err := v.Bind(rbuf.Bytes(), "rotating"); err != nil {
			b.Fatal(err)
		}
		frag := v.Frag()
		n.recvMu.Lock()
		n.pinned[rbuf] = true
		n.recvMu.Unlock()
		frag.Hops++
		if _, ok := n.stageForward(v.Frame(), frag.Index, frag.Hops, sbuf); !ok {
			b.Fatal("stageForward failed")
		}
		//cyclolint:viewsafe the repost-failure error wraps no view bytes; the view is dead once the credit is released
		n.releaseRecv(rbuf)
	}
	b.StopTimer()
	if relation.NativeLittleEndian() {
		allocs := testing.AllocsPerRun(100, func() {
			v := n.views[rbuf]
			if err := v.Bind(rbuf.Bytes(), "rotating"); err != nil {
				panic(err)
			}
			frag := v.Frag()
			n.recvMu.Lock()
			n.pinned[rbuf] = true
			n.recvMu.Unlock()
			frag.Hops++
			if _, ok := n.stageForward(v.Frame(), frag.Index, frag.Hops, sbuf); !ok {
				panic("stageForward failed")
			}
			//cyclolint:viewsafe the repost-failure error wraps no view bytes; the view is dead once the credit is released
			n.releaseRecv(rbuf)
		})
		if allocs != 0 {
			b.Fatalf("forward staging allocates %.1f times per fragment, want 0", allocs)
		}
	}
}
