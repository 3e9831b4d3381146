// Package ring implements the Data Roundabout runtime (§II-C, §III-D): a
// logical ring of hosts, each owning a statically allocated pool of
// registered buffers, through which fragments of a relation circulate in
// one direction.
//
// Each node runs the paper's three asynchronous entities as goroutines:
//
//   - the *receiver* keeps receive buffers posted on the inbound queue
//     pair and binds arriving frames in place as views;
//   - the *join entity* (Processor) consumes one fragment at a time and
//     stages it onward into a free send buffer (a frame copy plus a hops
//     patch; a full encode only on a locally injected fragment's first hop);
//   - the *transmitter* posts staged buffers to the outbound queue pair.
//
// Communication fully overlaps with processing: while the join entity works
// on one fragment, the receiver is already placing the next one and the
// transmitter is pushing the previous one out. Backpressure is the RDMA
// receiver-not-ready discipline: a node that falls behind stops reposting
// receive buffers, which stalls its upstream neighbor only after the
// neighbor has exhausted the slack in its own buffer pool — the mechanism
// behind the skew resilience observed in §V-D.
package ring

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/rdma/memlink"
	"cyclojoin/internal/rdma/tcplink"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/trace"
)

// mStallAborts counts runs killed by the stall watchdog — the signal
// that a host wedged and took the ring down with it.
var mStallAborts = metrics.Default().Counter("ring_stall_aborts_total", "runs aborted by the stall watchdog")

// ringSeq numbers the rings of the process; a ring's number is the ring
// label of its nodes' metric series.
var ringSeq atomic.Int64

// Processor is the per-node "join entity": it is handed every fragment that
// flows through the node, exactly once per revolution.
type Processor interface {
	// Process consumes one fragment. It runs on the node's processing
	// goroutine; returning an error aborts the whole ring run.
	Process(frag *relation.Fragment) error
}

// ProcessorFunc adapts a function to the Processor interface.
type ProcessorFunc func(frag *relation.Fragment) error

// Process implements Processor.
func (f ProcessorFunc) Process(frag *relation.Fragment) error { return f(frag) }

// LinkFactory creates the unidirectional link carrying traffic from node
// `from` to node `to`, returning the sender-side and receiver-side queue
// pairs.
type LinkFactory func(from, to int) (src, dst rdma.QueuePair, err error)

// MemLinks is the in-process zero-copy link factory.
func MemLinks() LinkFactory {
	return func(from, to int) (rdma.QueuePair, rdma.QueuePair, error) {
		a, b := memlink.Pair()
		return a, b, nil
	}
}

// TCPLinks builds real TCP loopback links — the whole ring then runs over
// the operating system's network stack.
func TCPLinks() LinkFactory {
	return func(from, to int) (rdma.QueuePair, rdma.QueuePair, error) {
		ln, err := tcplink.Listen("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
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
		src, err := tcplink.Dial(ln.Addr())
		if err != nil {
			return nil, nil, err
		}
		acc := <-ch
		if acc.err != nil {
			_ = src.Close()
			return nil, nil, acc.err
		}
		return src, acc.qp, nil
	}
}

// Config sizes a ring.
type Config struct {
	// Nodes is the ring size (the paper evaluates 1–6).
	Nodes int
	// BufferSlots is the number of ring-buffer elements per node per
	// direction. More slots mean more pipelining slack (§V-D). Zero means
	// DefaultBufferSlots.
	BufferSlots int
	// BufferBytes is the registered size of each buffer element and thus
	// the maximum encoded fragment size. Zero means DefaultBufferBytes.
	BufferBytes int
	// Flight is the span recorder for the flight recorder. Nil means the
	// process-wide trace.Flight() (which records nothing unless enabled).
	// Recording must be enabled before New: nodes take their shards at
	// construction time.
	Flight *trace.Recorder
	// StallTimeout aborts a Run when no fragment retires for this long —
	// the watchdog that turns a hung host (stuck join entity, dead
	// machine behind a silent link) into a diagnostic error instead of a
	// wedged cluster. Zero disables the watchdog. After a stall abort
	// the ring is unusable; Close abandons goroutines that refuse to
	// stop.
	StallTimeout time.Duration
	// Recovery enables revolution-level link retry/resume: on a transport
	// fault, Run re-dials the failed link through the same factory and
	// re-routes the sender's retained frames instead of aborting (see
	// recovery.go). The zero value keeps the historical fail-fast
	// behavior. Recovery needs Nodes > 1.
	Recovery Recovery
}

// flightRecorder returns the effective span recorder.
func (c Config) flightRecorder() *trace.Recorder {
	if c.Flight == nil {
		return trace.Flight()
	}
	return c.Flight
}

// Defaults for Config.
const (
	DefaultBufferSlots = 4
	DefaultBufferBytes = 4 << 20
)

func (c Config) slots() int {
	if c.BufferSlots <= 0 {
		return DefaultBufferSlots
	}
	return c.BufferSlots
}

func (c Config) bufBytes() int {
	if c.BufferBytes <= 0 {
		return DefaultBufferBytes
	}
	return c.BufferBytes
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("ring: config with %d nodes", c.Nodes)
	}
	return nil
}

// NodeStats snapshots one node's counters after (or during) a run. The
// counters are cumulative over the ring's lifetime, across ReplaceNode
// too, except QueueDepth, a point-in-time reading; internal/health
// differences two snapshots to get a window.
type NodeStats struct {
	// Node is the ring position.
	Node int
	// Processed counts fragments handled by the join entity.
	Processed int
	// Retired counts fragments that completed their revolution here.
	Retired int
	// BytesIn and BytesOut count decoded/encoded fragment volume.
	BytesIn, BytesOut int64
	// ProcessTime is time spent inside Processor.Process — the paper's
	// "join" time.
	ProcessTime time.Duration
	// WaitTime is time the join entity spent waiting for data to arrive —
	// the paper's "sync" time (§V-F).
	WaitTime time.Duration
	// StageTime is post-Process staging time (forward copy, encode,
	// retirement bookkeeping); ProcessTime+StageTime is the node's busy
	// time in the attribution model's sense.
	StageTime time.Duration
	// StallTime is send-side backpressure: waiting on a free send buffer.
	StallTime time.Duration
	// RegisteredBytes is the node's pinned buffer volume.
	RegisteredBytes int64
	// Materializes counts congestion fallbacks (no free send buffer).
	Materializes int64
	// LinkFailures counts failures of the node's outbound link (to the
	// next ring position) that Run observed, recoverable or not.
	LinkFailures int64
	// QueueDepth is the join entity's input backlog right now.
	QueueDepth int64
	// HopBounds and HopCounts snapshot the hop-latency histogram
	// (fragment residence on the join entity). HopBounds are the
	// registry's inclusive upper bounds (read-only, shared); HopCounts has
	// len(HopBounds)+1 entries, the last being +Inf.
	HopBounds []int64
	HopCounts []int64
}

// retirement announces that a fragment completed its revolution. It is
// deliberately metadata-only: the fragment's bytes stay in the retiring
// node's registered receive buffer, whose credit goes straight back to the
// transport. A consumer that needed the tuples would Materialize before
// release; the orchestrator only counts.
type retirement struct {
	index, hops int
}

// Ring is a running Data Roundabout.
type Ring struct {
	cfg   Config
	links LinkFactory
	nodes []*node
	// label is the ring's sequence number, the ring label of its nodes'
	// metric series.
	label string

	retired chan retirement
	errc    chan error
	// quit is closed by Close, unblocking a Run in progress (and any
	// recovery backoff sleep) so a mid-revolution shutdown returns
	// ErrClosed instead of wedging.
	quit chan struct{}
	// frelink records PhaseRelink recovery spans on its own track.
	frelink *trace.Shard

	mu     sync.Mutex
	closed bool
}

// New builds and starts a ring whose node i forwards to node (i+1) mod n.
// procs supplies one Processor per node.
func New(cfg Config, links LinkFactory, procs []Processor) (*Ring, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(procs) != cfg.Nodes {
		return nil, fmt.Errorf("ring: %d processors for %d nodes", len(procs), cfg.Nodes)
	}
	if links == nil {
		links = MemLinks()
	}
	r := &Ring{
		cfg:     cfg,
		links:   links,
		label:   strconv.FormatInt(ringSeq.Add(1), 10),
		retired: make(chan retirement, 64),
		errc:    make(chan error, cfg.Nodes*4),
		quit:    make(chan struct{}),
		frelink: cfg.flightRecorder().Shard(trace.NodeTransport, "ring/recovery"),
		nodes:   make([]*node, cfg.Nodes),
	}
	for i := range r.nodes {
		r.nodes[i] = newNode(r.label, i, cfg, procs[i], r.retired, r.errc)
	}
	// Wire links: out of i → in of i+1.
	for i := range r.nodes {
		next := (i + 1) % cfg.Nodes
		src, dst, err := links(i, next)
		if err != nil {
			r.closeNodes()
			return nil, fmt.Errorf("ring: link %d→%d: %w", i, next, err)
		}
		r.nodes[i].out = src
		r.nodes[next].in = dst
	}
	for _, n := range r.nodes {
		if err := n.start(); err != nil {
			_ = r.Close()
			return nil, err
		}
	}
	return r, nil
}

// Size returns the number of nodes.
func (r *Ring) Size() int { return r.cfg.Nodes }

// Stats appends one NodeStats per node to dst and returns it. It reads the
// node's metric instruments, plain atomic loads, so it is safe to call
// during a Run and costs the hot path nothing. Passing a previous call's
// result as dst[:0] allocates nothing: each row's HopCounts backing array
// is reused in place.
func (r *Ring) Stats(dst []NodeStats) []NodeStats {
	dst = slices.Grow(dst, len(r.nodes))
	for _, n := range r.nodes {
		i := len(dst)
		hops := dst[:i+1][i].HopCounts[:0]
		if want := len(durationBounds) + 1; cap(hops) < want {
			hops = make([]int64, 0, want)
		}
		dst = append(dst, NodeStats{
			Node:            n.id,
			Processed:       int(n.m.processed.Value()),
			Retired:         int(n.m.retired.Value()),
			BytesIn:         n.m.bytesIn.Value(),
			BytesOut:        n.m.bytesOut.Value(),
			ProcessTime:     time.Duration(n.m.processNs.Sum()),
			WaitTime:        time.Duration(n.m.waitNs.Sum()),
			StageTime:       time.Duration(n.m.stageNs.Value()),
			StallTime:       time.Duration(n.m.stallNs.Value()),
			RegisteredBytes: n.m.registeredBytes.Value(),
			Materializes:    n.m.materializes.Value(),
			LinkFailures:    n.m.linkFailures.Value(),
			QueueDepth:      int64(n.procQ.Len() + n.injectQ.Len()),
			HopBounds:       durationBounds,
			HopCounts:       n.m.hopNs.Buckets(hops),
		})
	}
	return dst
}

// Run injects perNode[i] fragments at node i and blocks until every
// injected fragment has completed one full revolution (visited every node
// exactly once). Fragment hop counts are reset on injection. A Ring can
// Run any number of times; runs must not overlap.
func (r *Ring) Run(perNode [][]*relation.Fragment) error {
	if len(perNode) != r.cfg.Nodes {
		return fmt.Errorf("ring: Run with %d node slots, ring has %d", len(perNode), r.cfg.Nodes)
	}
	total := 0
	for i, frags := range perNode {
		for _, f := range frags {
			if err := f.Validate(); err != nil {
				return fmt.Errorf("ring: inject at node %d: %w", i, err)
			}
			f.Hops = 0
			total++
		}
	}
	// Inject asynchronously: a node's processing queue may be smaller than
	// its fragment list, and injection must not deadlock against the
	// node's own consumption. The non-blocking pass below usually empties
	// the whole list inline (injection counts are normally sized to the
	// ring's queues); only a remainder that would block costs a goroutine.
	var wg sync.WaitGroup
	for i, frags := range perNode {
		n := r.nodes[i]
		j := 0
		for j < len(frags) && n.tryInject(frags[j]) {
			j++
		}
		if j == len(frags) {
			continue
		}
		wg.Add(1)
		go func(n *node, frags []*relation.Fragment) {
			defer wg.Done()
			for _, f := range frags {
				if !n.inject(f) {
					return
				}
			}
		}(n, frags[j:])
	}
	defer wg.Wait()

	var stall <-chan time.Time
	var timer *time.Timer
	if r.cfg.StallTimeout > 0 {
		timer = time.NewTimer(r.cfg.StallTimeout)
		defer timer.Stop()
		stall = timer.C
	}
	resetStall := func() {
		if timer == nil {
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(r.cfg.StallTimeout)
	}
	// retries tracks consecutive recovery attempts per link (keyed by the
	// sending node); a retirement anywhere means the ring is making
	// progress and resets the failing link's budget.
	var retries map[int]*linkRetry
	done := 0
	for done < total {
		select {
		case <-r.retired:
			done++
			// Drain retirements already queued without re-entering the
			// multi-way select: on a busy ring they arrive in bursts.
			for done < total {
				select {
				case <-r.retired:
					done++
					continue
				default:
				}
				break
			}
			resetStall()
		case <-r.quit:
			return ErrClosed
		case err := <-r.errc:
			var lf *linkFailure
			isLink := errors.As(err, &lf)
			if isLink && r.stale(lf) {
				// An echo from an endpoint the ring has since replaced:
				// an already-recovered failure (the second endpoint
				// reporting, or a queued duplicate) or a node torn down
				// by ReplaceNode. It says nothing about this Run.
				continue
			}
			if isLink {
				r.nodes[lf.le.From].m.linkFailures.Inc()
			}
			if !isLink || !r.recoverable() {
				_ = r.Close()
				return fmt.Errorf("ring: run aborted: %w", err)
			}
			if retries == nil {
				retries = make(map[int]*linkRetry)
			}
			st := retries[lf.le.From]
			if st == nil {
				st = &linkRetry{}
				retries[lf.le.From] = st
			}
			if done > st.lastDone {
				st.attempts = 0
			}
			st.lastDone = done
			st.attempts++
			if st.attempts > r.cfg.Recovery.MaxRetries {
				mPartials.Inc()
				_ = r.Close()
				return &PartialError{Retired: done, Total: total, Last: lf.le}
			}
			if rerr := r.recoverLink(lf.le.From, lf.le.To, st); rerr != nil {
				mPartials.Inc()
				_ = r.Close()
				return &PartialError{Retired: done, Total: total, Last: rerr}
			}
			// The outage consumed watchdog time through no fault of the
			// surviving pipeline; give the recovered ring a fresh window.
			resetStall()
		case <-stall:
			// Unblock injectors and loops without waiting for them —
			// a stuck join entity cannot be interrupted.
			mStallAborts.Inc()
			r.abandon()
			return fmt.Errorf("ring: stalled: no fragment retired for %v (%d/%d done); per-node progress: %s",
				r.cfg.StallTimeout, done, total, r.progressSummary())
		}
	}
	return nil
}

// abandon signals every node to quit without waiting for goroutines; used
// when a stuck processor makes an orderly stop impossible.
func (r *Ring) abandon() {
	for _, n := range r.nodes {
		if n != nil {
			n.quitOnce.Do(func() { close(n.quit) })
		}
	}
}

// progressSummary renders per-node counters for stall diagnostics.
func (r *Ring) progressSummary() string {
	out := ""
	for i, n := range r.nodes {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("node %d processed %d", i, n.m.processed.Value())
	}
	return out
}

// ReplaceNode swaps in a new processor at position i with fresh links to
// its neighbors — the paper's "any failing node can easily be replaced by
// another machine" (§II-C). The ring must be idle (no Run in progress).
func (r *Ring) ReplaceNode(i int, proc Processor) error {
	if i < 0 || i >= len(r.nodes) {
		return fmt.Errorf("ring: replace node %d of %d", i, len(r.nodes))
	}
	old := r.nodes[i]
	n := newNode(r.label, i, r.cfg, proc, r.retired, r.errc)

	if r.cfg.Nodes == 1 {
		old.stop()
		src, dst, err := r.links(i, i)
		if err != nil {
			return fmt.Errorf("ring: replace node %d: %w", i, err)
		}
		n.out, n.in = src, dst
		r.nodes[i] = n
		return n.start()
	}
	prev := (i - 1 + r.cfg.Nodes) % r.cfg.Nodes
	next := (i + 1) % r.cfg.Nodes

	// Quiesce the neighbor endpoints facing the old node first, so that
	// tearing the old node down does not surface as link errors on the
	// survivors.
	r.nodes[prev].stopSend()
	r.nodes[next].stopRecv()
	old.stop()

	srcPrev, dstNew, err := r.links(prev, i)
	if err != nil {
		return fmt.Errorf("ring: replace node %d: link %d→%d: %w", i, prev, i, err)
	}
	srcNew, dstNext, err := r.links(i, next)
	if err != nil {
		return fmt.Errorf("ring: replace node %d: link %d→%d: %w", i, i, next, err)
	}
	n.in, n.out = dstNew, srcNew
	r.nodes[i] = n
	if err := n.start(); err != nil {
		return err
	}
	r.nodes[prev].beginSend(srcPrev)
	if err := r.nodes[next].beginRecv(dstNext); err != nil {
		return err
	}
	r.dropStaleFailures()
	return nil
}

// dropStaleFailures empties errc of link failures observed on endpoints
// the ring no longer uses. ReplaceNode calls it once the new endpoints are
// installed: the old node's loops see their neighbours' endpoints close
// before their own stop channel does and report that as a link failure,
// and every such loop has exited by then, so no echo of the teardown is
// left for the next Run. Anything else goes back on the queue.
func (r *Ring) dropStaleFailures() {
	var keep []error
	for {
		select {
		case err := <-r.errc:
			var lf *linkFailure
			if !errors.As(err, &lf) || !r.stale(lf) {
				keep = append(keep, err)
			}
			continue
		default:
		}
		break
	}
	for _, err := range keep {
		select {
		case r.errc <- err:
		default:
			// A surviving node refilled the queue meanwhile; like
			// node.report, the errors already pending win.
		}
	}
}

// Close stops all nodes and removes the ring's series from the metrics
// registry. It is idempotent.
func (r *Ring) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	close(r.quit)
	r.closeNodes()
	return nil
}

func (r *Ring) closeNodes() {
	for _, n := range r.nodes {
		if n != nil {
			n.stop()
		}
	}
	metrics.Default().Forget("ring", r.label)
}
