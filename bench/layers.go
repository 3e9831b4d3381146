package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"cyclojoin/internal/core"
	"cyclojoin/internal/join"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/query"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
)

// The layer probes time calls into each module's public functions on the
// workload's own inputs, one host's share at a time, after the measured
// window. They explain the end-to-end numbers; they gate nothing.

// A probe stops at probeReps repetitions or after probeTime. The smoke test
// lowers probeReps.
var probeReps = 20

const probeTime = time.Second

// probe repeats f until it has run probeReps times or for probeTime and
// returns the median of the durations f reports, with the sample count.
func probe(f func() (time.Duration, error)) (time.Duration, int, error) {
	var ds []float64
	for start := time.Now(); len(ds) < probeReps && time.Since(start) < probeTime; {
		d, err := f()
		if err != nil {
			return 0, 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), len(ds), nil
}

// timed adapts a function to probe by timing the whole call.
func timed(f func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		err := f()
		return time.Since(t0), err
	}
}

// probeLayers runs every probe that applies to w and records its readings.
// opP50 is the untraced window's median op time, for the query layer's
// cold-ring overhead.
func probeLayers(w *workloadDef, in *inputs, opP50 time.Duration, rep *report) error {
	rot, err := w.rotating(in.rels[0])
	if err != nil {
		return err
	}
	sParts, err := relation.Partition(in.rels[1], nodes)
	if err != nil {
		return err
	}
	share := sParts[0].Rel // one host's stationary share
	raw := rot[0][0]       // one rotating fragment, as generated

	if err := probeJoin(w, share, raw, rep); err != nil {
		return fmt.Errorf("join probes: %w", err)
	}
	if err := probeRelation(w, in, raw, rep); err != nil {
		return fmt.Errorf("relation probes: %w", err)
	}
	frameBytes := relation.EncodedSize(raw)
	if err := probeLink(w, frameBytes, rep); err != nil {
		return fmt.Errorf("rdma probes: %w", err)
	}
	if err := probeRing(w, rot, rep); err != nil {
		return fmt.Errorf("ring probes: %w", err)
	}
	probeCollectors(w, rep)
	if w.kind == opSQL {
		if err := probeQuery(w, in, opP50, rep); err != nil {
			return fmt.Errorf("query probes: %w", err)
		}
	}
	return nil
}

func probeJoin(w *workloadDef, share *relation.Relation, raw *relation.Fragment, rep *report) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st, err := w.alg.SetupStationary(share, w.pred, join.Options{})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	perTuple := func(d time.Duration, tuples int) float64 { return float64(d) / float64(tuples) }
	rep.set("join.setup_alloc_b_per_tuple", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(share.Len()), 1)
	rep.set("join.stationary_bytes_per_tuple", float64(st.Bytes())/float64(share.Len()), 1)

	d, n, err := probe(timed(func() error {
		_, err := w.alg.SetupStationary(share, w.pred, join.Options{})
		return err
	}))
	if err != nil {
		return err
	}
	rep.set("join.setup_stationary_ns_per_tuple", perTuple(d, share.Len()), n)

	var organised *relation.Relation
	d, n, err = probe(timed(func() (err error) {
		organised, err = w.alg.SetupRotating(raw.Rel, w.pred, join.Options{})
		return err
	}))
	if err != nil {
		return err
	}
	rep.set("join.setup_rotating_ns_per_tuple", perTuple(d, raw.Rel.Len()), n)

	d, n, err = probe(timed(func() error { return st.Join(organised, join.Discard{}) }))
	if err != nil {
		return err
	}
	rep.set("join.phase_ns_per_tuple", perTuple(d, organised.Len()), n)
	return nil
}

func probeRelation(w *workloadDef, in *inputs, raw *relation.Fragment, rep *report) error {
	d, n, err := probe(timed(func() error {
		_, err := w.rotating(in.rels[0])
		return err
	}))
	if err != nil {
		return err
	}
	rep.set("relation.partition_ms", millis(d), n)

	frame := make([]byte, relation.EncodedSize(raw))
	kb := float64(len(frame)) / 1024
	d, n, err = probe(timed(func() error {
		_, err := relation.Encode(raw, frame)
		return err
	}))
	if err != nil {
		return err
	}
	rep.set("relation.encode_ns_per_kb", float64(d)/kb, n)

	// A bind is tens of nanoseconds: time a thousand at a time.
	const binds = 1000
	var v relation.View
	d, n, err = probe(timed(func() error {
		for i := 0; i < binds; i++ {
			if err := v.Bind(frame, raw.Rel.Schema().Name); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	rep.set("relation.view_bind_ns", float64(d)/binds, n)

	d, n, _ = probe(timed(func() error {
		sink = v.Materialize()
		return nil
	}))
	rep.set("relation.materialize_ns_per_kb", float64(d)/kb, n)
	return nil
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// probeLink measures one link of the workload's transport: dial time, a
// one-way stream of fragment-sized messages, and a 64-byte ping-pong.
func probeLink(w *workloadDef, frameBytes int, rep *report) error {
	links := w.links()
	d, n, err := probe(func() (time.Duration, error) {
		t0 := time.Now()
		src, dst, err := links(0, 1)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		return d, errors.Join(src.Close(), dst.Close())
	})
	if err != nil {
		return err
	}
	rep.set("rdma.link_dial_ms", millis(d), n)

	src, dst, err := links(0, 1)
	if err != nil {
		return err
	}
	defer func() {
		_ = src.Close()
		_ = dst.Close()
	}()
	dev := rdma.OpenDevice("bench")
	const inflight = 4
	register := func(size int) ([]*rdma.Buffer, error) {
		pool, err := dev.RegisterPool(inflight, size)
		if err != nil {
			return nil, err
		}
		for _, b := range pool {
			if err := b.SetLen(size); err != nil {
				return nil, err
			}
		}
		return pool, nil
	}
	// reap waits for one completion of the given kind on qp.
	reap := func(qp rdma.QueuePair, op rdma.Op) (*rdma.Buffer, error) {
		for c := range qp.Completions() {
			if c.Err != nil {
				return nil, c.Err
			}
			if c.Op == op {
				return c.Buf, nil
			}
		}
		return nil, errors.New("completion queue closed")
	}

	// Stream: inflight messages posted back to back, receiver reposting.
	sendBufs, err := register(frameBytes)
	if err != nil {
		return err
	}
	recvBufs, err := register(frameBytes)
	if err != nil {
		return err
	}
	for _, b := range recvBufs {
		if err := dst.PostRecv(b); err != nil {
			return err
		}
	}
	const burst = 16 // messages per timed repetition
	d, n, err = probe(timed(func() error {
		errc := make(chan error, 1)
		go func() {
			for i := 0; i < burst; i++ {
				b, err := reap(dst, rdma.OpRecv)
				if err == nil {
					err = dst.PostRecv(b)
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		for i := 0; i < burst; i++ {
			if i >= inflight {
				if _, err := reap(src, rdma.OpSend); err != nil {
					return err
				}
			}
			if err := src.PostSend(sendBufs[i%inflight]); err != nil {
				return err
			}
		}
		for i := 0; i < inflight; i++ {
			if _, err := reap(src, rdma.OpSend); err != nil {
				return err
			}
		}
		return <-errc
	}))
	if err != nil {
		return err
	}
	rep.set("rdma.link_stream_gbps", float64(burst*frameBytes)*8/float64(d), n)

	// Ping-pong: 64 bytes there and 64 bytes back over the same link, one
	// message in flight. dst still holds the stream's receive buffers.
	small, err := register(64)
	if err != nil {
		return err
	}
	ping, pong, reply := small[0], small[1], small[2]
	const trips = 100
	d, n, err = probe(timed(func() error {
		for i := 0; i < trips; i++ {
			if err := errors.Join(src.PostRecv(reply), src.PostSend(ping)); err != nil {
				return err
			}
			b, err := reap(dst, rdma.OpRecv)
			if err != nil {
				return err
			}
			if err := errors.Join(dst.PostRecv(b), dst.PostSend(pong)); err != nil {
				return err
			}
			// The ping's send completion and the reply arrive in either order.
			for pending := 2; pending > 0; pending-- {
				c, ok := <-src.Completions()
				if !ok || c.Err != nil {
					return fmt.Errorf("ping-pong: %v", c.Err)
				}
			}
			if _, err := reap(dst, rdma.OpSend); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	rep.set("rdma.link_rtt_us", float64(d)/trips/1e3, n)
	return nil
}

// probeRing measures the ring with no-op join entities: construction, and a
// revolution of the workload's rotating fragments, which is the floor under
// any op that rotates them.
func probeRing(w *workloadDef, rot [][]*relation.Fragment, rep *report) error {
	procs := make([]ring.Processor, nodes)
	for i := range procs {
		procs[i] = ring.ProcessorFunc(func(*relation.Fragment) error { return nil })
	}
	cfg := ring.Config{Nodes: nodes}
	d, n, err := probe(timed(func() error {
		r, err := ring.New(cfg, w.links(), procs)
		if err != nil {
			return err
		}
		return r.Close()
	}))
	if err != nil {
		return err
	}
	rep.set("ring.build_ms", millis(d), n)

	r, err := ring.New(cfg, w.links(), procs)
	if err != nil {
		return err
	}
	defer func() { _ = r.Close() }()
	before := metrics.Default().Samples()
	d, n, err = probe(timed(func() error { return r.Run(rot) }))
	if err != nil {
		return err
	}
	wire := counterDelta(before, metrics.Default().Samples())["ring_bytes_out_total"]
	rep.set("ring.noop_revolution_ms", millis(d), n)
	rep.set("ring.hop_us", float64(d)/1e3/float64(nodes*nodes*w.fragsPerHost), n)
	rep.set("ring.noop_gbps", float64(wire)/float64(n)*8/float64(d), n)
	return nil
}

// probeCollectors times direct Emit loops through the Collector interface,
// with payloads of the workload's width.
func probeCollectors(w *workloadDef, rep *report) {
	pay := make([]byte, w.payload)
	const emits = 100_000
	emitLoop := func(c join.Collector) func() error {
		return func() error {
			for i := uint64(0); i < emits; i++ {
				c.Emit(i, i, pay, pay)
			}
			return nil
		}
	}
	d, n, _ := probe(timed(emitLoop(&join.Counter{})))
	rep.set("join.counter_emit_ns", float64(d)/emits, n)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, n, _ = probe(func() (time.Duration, error) {
		return timed(emitLoop(join.NewMaterializer("probe", w.payload, w.payload)))()
	})
	runtime.ReadMemStats(&m1)
	rep.set("join.materializer_emit_ns", float64(d)/emits, n)
	rep.set("join.materializer_alloc_b_per_match", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n*emits), n)
}

// probeQuery replays the two join steps of sql3way on one ring that is built
// once, with the collectors and the Concat the engine uses. What Execute costs
// beyond that is the price of building and tearing down a ring per step.
func probeQuery(w *workloadDef, in *inputs, opP50 time.Duration, rep *report) error {
	d, n, err := probe(timed(func() error {
		_, err := query.Parse(sql3way)
		return err
	}))
	if err != nil {
		return err
	}
	rep.set("query.parse_us", float64(d)/1e3, n)

	a, b, c := in.rels[0], in.rels[1], in.rels[2]
	midSchema := relation.Schema{Name: "join-1", PayloadWidth: w.payload + relation.KeyWidth + w.payload}
	materialise := true
	cfg := w.clusterConfig()
	cfg.Collectors = func(int) join.Collector {
		if materialise {
			return join.NewMaterializer(midSchema.Name, w.payload, w.payload)
		}
		return &join.Counter{}
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer func() { _ = cluster.Close() }()

	var midFrags []*relation.Fragment
	var mid *relation.Relation
	concat := func() (err error) {
		mid, err = relation.Concat(midSchema, midFrags)
		return err
	}
	d, n, err = probe(timed(func() error {
		materialise = true
		res, err := cluster.JoinRelations(a, b, false)
		if err != nil {
			return err
		}
		midFrags = midFrags[:0]
		for i, col := range res.Collectors {
			midFrags = append(midFrags, &relation.Fragment{Rel: col.(*join.Materializer).Result(), Index: i, Of: nodes})
		}
		if err := concat(); err != nil {
			return err
		}
		materialise = false
		res, err = cluster.JoinRelations(mid, c, false)
		if err != nil {
			return err
		}
		if res.Matches() != in.want {
			return fmt.Errorf("warm replay: %d matches, oracle says %d", res.Matches(), in.want)
		}
		return nil
	}))
	if err != nil {
		return err
	}
	rep.set("query.warm_steps_ms", millis(d), n)
	rep.set("query.cold_ring_overhead_ms", millis(opP50-d), n)
	rep.set("query.intermediate_rows", float64(mid.Len()), 1)

	d, n, err = probe(timed(concat))
	if err != nil {
		return err
	}
	rep.set("relation.concat_ms", millis(d), n)
	return nil
}
