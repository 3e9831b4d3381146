package ring

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ringq"
	"cyclojoin/internal/trace"
)

// durationBounds covers 1 µs … ~4 s in powers of four — the span between
// a memlink hop and a badly stalled join entity.
var durationBounds = metrics.ExponentialBounds(1<<10, 4, 12)

// stageBounds covers 64 ns … ~1 s in powers of four — the span of the
// per-fragment staging work (a 4-byte header patch plus one memmove on the
// fast path, a full encode on the first hop).
var stageBounds = metrics.ExponentialBounds(1<<6, 4, 12)

// spinPops bounds how long a pipeline entity re-polls its queues (yielding
// between attempts) before arming its Waiter and parking. The hand-off
// between entities on a loaded ring is far shorter than a park/unpark
// round trip, so a short spin keeps the hot path free of scheduler
// activity; an idle entity still parks after ~spinPops yields.
const spinPops = 64

// reapBatch is how many completions a reaper moves out of a completion
// queue per wakeup: one blocking receive, then a bulk PollCQ drain. One
// wakeup then amortizes across up to reapBatch frames.
const reapBatch = 64

// txBatch is how many staged frames the transmitter coalesces into a
// single batched post — one doorbell (one writev on tcplink, one queue
// round trip on memlink) for everything that accumulated in sendQ while
// the previous post was in flight.
const txBatch = 16

// timerSample decimates the sub-microsecond hot-path timers (view bind,
// forward staging): reading the clock twice around a ~100 ns operation
// costs more than the operation, so only every timerSample-th one is
// timed. Power of two; the histograms keep their shape, at 1/16 the
// clock traffic.
const timerSample = 16

// nodeMetrics are one ring position's instruments, labeled
// {ring="<seq>", node="<id>"}: the node's only stats. Every hot-path event
// bumps exactly one of them, and Ring.Stats reads them back. Lookup is
// idempotent, so a replaced node keeps counting into its position's
// series; Ring.Close removes the ring's series from the registry.
type nodeMetrics struct {
	bytesIn   *metrics.Counter
	bytesOut  *metrics.Counter
	processed *metrics.Counter
	retired   *metrics.Counter
	// waitNs/processNs are the paper's sync/join time per fragment; their
	// sums are NodeStats.WaitTime/ProcessTime.
	waitNs    *metrics.Histogram
	processNs *metrics.Histogram
	// stageNs is post-Process staging time (forward copy / encode /
	// retirement bookkeeping) — with processNs the node's "busy" time in
	// the attribution model's sense.
	stageNs *metrics.Counter
	// stallNs is send-side backpressure: waiting for a free send buffer.
	// A node whose downstream neighbor lags shows it here first.
	stallNs         *metrics.Counter
	registeredBytes *metrics.Gauge
	// linkFailures counts failures of the node's outbound link that Run
	// took off the ring's error channel, recoverable or not.
	linkFailures *metrics.Counter

	// Zero-copy hot-path accounting: every received frame should be a
	// view bind (no decode allocation), and every non-first hop a frame
	// copy (no re-encode). views+forwards vs encodes is the allocation
	// win made visible.
	views        *metrics.Counter
	forwards     *metrics.Counter
	encodes      *metrics.Counter
	materializes *metrics.Counter
	bindNs       *metrics.Histogram
	forwardNs    *metrics.Histogram
	encodeNs     *metrics.Histogram

	// hopNs is the fragment's full residence on this node's join entity
	// (Process start to staged), the distribution internal/health windows
	// into live p50/p99 per node.
	hopNs *metrics.Histogram
}

func newNodeMetrics(ring string, id int) nodeMetrics {
	r := metrics.Default()
	l := []string{"ring", ring, "node", strconv.Itoa(id)}
	return nodeMetrics{
		bytesIn:         r.Counter("ring_bytes_in_total", "encoded wire bytes received per ring node", l...),
		bytesOut:        r.Counter("ring_bytes_out_total", "encoded wire bytes transmitted per ring node", l...),
		processed:       r.Counter("ring_fragments_processed_total", "fragments handled by the join entity", l...),
		retired:         r.Counter("ring_fragments_retired_total", "fragments that completed their revolution here", l...),
		waitNs:          r.Histogram("ring_wait_ns", "join-entity starvation (sync) time per fragment", durationBounds, l...),
		processNs:       r.Histogram("ring_process_ns", "join-entity processing time per fragment", durationBounds, l...),
		stageNs:         r.Counter("ring_stage_ns_total", "post-Process staging time (forward copy, encode, retirement)", l...),
		stallNs:         r.Counter("ring_stall_ns_total", "send-side backpressure: waiting for a free send buffer", l...),
		registeredBytes: r.Gauge("ring_registered_bytes", "registered (pinned) buffer bytes per ring node", l...),
		linkFailures:    r.Counter("ring_link_failures_total", "failures of the node's outbound link observed by Run", l...),
		views:           r.Counter("ring_views_total", "received frames bound as allocation-free views of registered memory", l...),
		forwards:        r.Counter("ring_forwards_total", "fragments forwarded by wire-frame copy and hops patch, no decode or re-encode", l...),
		encodes:         r.Counter("ring_encodes_total", "fragments fully serialized into a send buffer (first hop of locally injected fragments)", l...),
		materializes:    r.Counter("ring_materializes_total", "fragments copied out of registered memory because no send buffer was free (congestion fallback)", l...),
		bindNs:          r.Histogram("ring_view_bind_ns", "time to bind a received frame as a view", stageBounds, l...),
		forwardNs:       r.Histogram("ring_forward_ns", "time to stage a forwarded frame (copy + hops patch)", stageBounds, l...),
		encodeNs:        r.Histogram("ring_encode_ns", "time to fully encode a fragment into a send buffer", stageBounds, l...),
		hopNs:           r.Histogram("ring_hop_ns", "fragment residence on the join entity, Process start to staged", durationBounds, l...),
	}
}

// inflight carries one fragment from the receiver to the join entity
// together with the registered receive buffer whose bytes it aliases. The
// buffer's receive credit is withheld until the join entity is done with
// the frame — immediately after Process the frame is staged into a send
// buffer (or, if none is free, copied out of registered memory), the view
// retired, and the credit returned. A view is therefore never invalidated
// while the join entity can still read it, and a node that falls behind
// stops crediting its upstream neighbor exactly as before; crucially, the
// credit never waits on downstream transmit progress, which would close a
// circular wait around the ring.
type inflight struct {
	// frag is what the join entity sees. For a wire arrival it aliases
	// view's storage; for a locally injected fragment it owns its data.
	frag *relation.Fragment
	// view is non-nil for wire arrivals: the frame decoded in place.
	view *relation.View
	// buf is the registered receive buffer holding the frame; nil for
	// locally injected fragments.
	buf *rdma.Buffer
}

// outbound is one fully staged send buffer queued for the transmitter:
// wire bytes placed, length set. Staging happens entirely in the join
// loop, never in the transmitter — the transmitter's waits (send credits,
// posted completions) depend on downstream progress, and a buffer
// acquisition there could close a resource cycle around the ring (or
// starve behind an already-staged buffer in its own queue).
type outbound struct {
	// index and hops snapshot the fragment metadata for stats/tracing —
	// the originating view may be rebound by the time the send posts.
	index, hops int
	staged      *rdma.Buffer
	sz          int
}

// node is one Data Roundabout host: receiver + join entity + transmitter
// over a statically registered buffer pool.
//
// The inter-entity queues are lock-free rings (internal/ringq), not
// channels: the uncontended hand-off is two atomics with no shared cache
// line, and blocking is pushed off the hot path into per-edge Waiters.
// Each SPSC edge has exactly one producer and one consumer goroutine;
// entity restarts (node replacement, link recovery) are sequenced by the
// stop/WaitGroup machinery, so each generation is a valid single
// producer.
type node struct {
	id  int
	cfg Config
	// proc is the join entity.
	proc Processor
	dev  *rdma.Device

	in, out rdma.QueuePair

	// procQ feeds the join entity wire arrivals; its capacity is the
	// ring-buffer depth (rounded up), so a slow node absorbs that much
	// slack before stalling upstream. Producer: receiver. Consumer: join
	// loop.
	procQ *ringq.SPSC[inflight]
	// injectQ feeds the join entity locally injected fragments. It is a
	// separate edge because Run's injector goroutine is concurrent with
	// the receiver, and each SPSC edge admits one producer.
	injectQ *ringq.SPSC[inflight]
	// sendQ feeds the transmitter. It holds every staged buffer the pool
	// can produce: an outbound exists only while it owns one of the
	// slots+2 send buffers, so at this capacity the join loop's push
	// never fails, and never waits on a transmitter that waits on its
	// downstream neighbor.
	sendQ *ringq.SPSC[outbound]
	// requeueQ carries retained frames re-routed by link recovery to the
	// restarted transmitter, which drains it before sendQ. A separate
	// edge because the producer is Run's control goroutine, not the join
	// loop.
	requeueQ *ringq.SPSC[outbound]
	// freeSend holds the registered send buffers not currently in flight.
	// MPMC: the transmitter's reaper fills it on the hot path, the join
	// loop's failure paths return credits too, and recovery's drain pass
	// is a third producer.
	freeSend *ringq.MPMC[*rdma.Buffer]
	// sendPool is the send pool size — the invariant value of
	// freeSend.Len() when the pipeline is idle (the rings round their
	// capacity up, so Cap no longer states it).
	sendPool int

	// joinWake parks the join loop when procQ and injectQ are empty;
	// txWake parks the transmitter when sendQ and requeueQ are empty;
	// poolWake parks the join loop's blocking free-buffer wait.
	// procSpace/injectSpace park the respective producers when an edge is
	// full. sendQ's producer never parks (see pushOutbound).
	joinWake    *ringq.Waiter
	txWake      *ringq.Waiter
	poolWake    *ringq.Waiter
	procSpace   *ringq.Waiter
	injectSpace *ringq.Waiter

	// recvBufs is the registered receive pool. Each buffer is either
	// posted on the inbound queue pair, pinned under a frame the pipeline
	// still needs, or parked awaiting the next receiver start.
	recvBufs []*rdma.Buffer
	// views holds one reusable decode view per receive buffer: a buffer
	// carries at most one frame at a time, so its view is rebound in
	// place on every arrival — no per-fragment allocation. The map is
	// populated in start() before any entity goroutine launches and is
	// read-only afterwards.
	//
	//cyclolint:sharesafe filled before the entities launch, read-only afterwards
	views map[*rdma.Buffer]*relation.View

	// recvMu guards the receive-credit lifecycle: which buffers are
	// pinned by in-flight frames and where a released buffer returns to.
	// The receiver start/stop path (node replacement) swaps repostQP out
	// underneath running pipeline goroutines.
	recvMu sync.Mutex
	// pinned marks receive buffers whose frames are still referenced by
	// the pipeline; beginRecv must not post them.
	pinned map[*rdma.Buffer]bool
	// repostQP is the inbound endpoint a released buffer's credit returns
	// to, and the link a repost failure is attributed to. postRecvPool
	// installs it; it is nil while the receiver is stopped, and released
	// buffers are then parked (unpinned) for the next start.
	repostQP rdma.QueuePair

	// inflightMu guards inflightSend: the staged frames handed to the
	// transmitter whose delivery the transport has not yet confirmed.
	// Link recovery re-routes exactly these (takeRetained, recovery.go).
	inflightMu   sync.Mutex
	inflightSend map[*rdma.Buffer]outbound

	retired chan<- retirement
	errc    chan<- error

	quit     chan struct{}
	quitOnce sync.Once
	procWG   sync.WaitGroup

	// Receiver and transmitter machinery restart independently during
	// node replacement, so each has its own stop channel and wait group.
	recvStop chan struct{}
	recvWG   sync.WaitGroup
	// recvDead is closed (per receiver generation) when the receive loop
	// observes a terminal transport event — an error completion or the
	// completion queue closing underneath it. Link recovery waits on it
	// before closing a buffered-wire endpoint (recovery.go): the sender's
	// teardown guarantees an eventual EOF, and every frame the wire still
	// held is consumed and delivered before that EOF surfaces here.
	recvDead chan struct{}
	sendStop chan struct{}
	sendWG   sync.WaitGroup

	// spill holds a forwarded frame copied out of registered memory while
	// every send buffer is busy (spillForward). Join loop only.
	spill []byte
	// bindTick/stageTick drive the timerSample decimation. Single-writer:
	// bindTick belongs to the receiver goroutine, stageTick to the join
	// loop.
	bindTick, stageTick uint

	m nodeMetrics

	// Flight-recorder shards, one per entity track (receiver, join entity,
	// transmitter). Inert no-op shards when recording is disabled.
	frecv, fjoin, fsend *trace.Shard
	// sendPend holds the open PhaseSend span for each posted send buffer;
	// the reaper closes it when the completion arrives, so the span covers
	// post→completion rather than just the post call.
	pendMu   sync.Mutex
	sendPend map[*rdma.Buffer]trace.Pending
}

func newNode(ring string, id int, cfg Config, proc Processor, retired chan<- retirement, errc chan<- error) *node {
	slots := cfg.slots()
	fl := cfg.flightRecorder()
	return &node{
		id:           id,
		cfg:          cfg,
		proc:         proc,
		dev:          rdma.OpenDevice(fmt.Sprintf("rnic-%d", id)),
		procQ:        ringq.NewSPSC[inflight](slots),
		injectQ:      ringq.NewSPSC[inflight](slots),
		sendQ:        ringq.NewSPSC[outbound](slots + 2),
		requeueQ:     ringq.NewSPSC[outbound](slots + 2),
		freeSend:     ringq.NewMPMC[*rdma.Buffer](slots + 2),
		joinWake:     ringq.NewWaiter(),
		txWake:       ringq.NewWaiter(),
		poolWake:     ringq.NewWaiter(),
		procSpace:    ringq.NewWaiter(),
		injectSpace:  ringq.NewWaiter(),
		views:        make(map[*rdma.Buffer]*relation.View, slots),
		pinned:       make(map[*rdma.Buffer]bool, slots),
		retired:      retired,
		errc:         errc,
		quit:         make(chan struct{}),
		m:            newNodeMetrics(ring, id),
		frecv:        fl.Shard(id, "recv"),
		fjoin:        fl.Shard(id, "join"),
		fsend:        fl.Shard(id, "send"),
		sendPend:     make(map[*rdma.Buffer]trace.Pending),
		inflightSend: make(map[*rdma.Buffer]outbound, slots+2),
	}
}

// labelEntity tags the calling goroutine with pprof labels (cyclo_node,
// cyclo_entity) so an on-demand CPU profile — internal/health captures one
// when it flags a straggler — attributes samples to a ring position and
// pipeline entity. Cold path: once per entity-goroutine start.
func (n *node) labelEntity(entity string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("cyclo_node", strconv.Itoa(n.id), "cyclo_entity", entity)))
}

// start registers the buffer pools (once, up front — §III-C) and launches
// the three entities.
func (n *node) start() error {
	if len(n.recvBufs) == 0 {
		recv, err := n.dev.RegisterPool(n.cfg.slots(), n.cfg.bufBytes())
		if err != nil {
			return fmt.Errorf("ring: node %d: register receive pool: %w", n.id, err)
		}
		n.recvBufs = recv
		for _, b := range recv {
			n.views[b] = new(relation.View)
		}
		// The send pool covers every pipeline stage that can hold a
		// staged buffer concurrently: the join loop staging one fragment,
		// the send queue, and the transmitter's fragment in flight.
		// Staging moved into the join loop (so the receive credit is
		// freed before any transmit-side wait); without the extra two
		// buffers a minimal slots=1 ring would lose the pipeline slack
		// the pre-zero-copy design got from queuing heap fragments, and
		// could wedge under full backpressure.
		send, err := n.dev.RegisterPool(n.cfg.slots()+2, n.cfg.bufBytes())
		if err != nil {
			return fmt.Errorf("ring: node %d: register send pool: %w", n.id, err)
		}
		n.sendPool = len(send)
		for _, b := range send {
			n.freeSend.TryPush(b)
		}
		n.m.registeredBytes.Set(n.dev.Stats().BytesPinned)
	}
	// The three entities below share custody of the pooled views planted
	// in n.views: each send of a view down the pipeline carries the
	// buffer credit with it, which is the ring's sanctioned handoff.
	n.procWG.Add(1)
	go func() {
		defer n.procWG.Done()
		n.labelEntity("join")
		//cyclolint:viewsafe pooled views travel the pipeline with their buffer credit
		n.procLoop()
	}()
	//cyclolint:viewsafe postRecvPool posts only unpinned receive buffers; a view's buffer stays pinned until its credit is released
	if err := n.beginRecv(n.in); err != nil {
		return err
	}
	//cyclolint:viewsafe pooled views travel the pipeline with their buffer credit
	n.beginSend(n.out)
	return nil
}

// ---- receiver ----

// beginRecv (re)starts the receiver on qp: it offers the receive pool
// upstream and launches the receive pump.
func (n *node) beginRecv(qp rdma.QueuePair) error {
	n.in = qp
	n.recvStop = make(chan struct{})
	stop := n.recvStop
	if err := n.postRecvPool(qp); err != nil {
		return err
	}
	dead := make(chan struct{})
	n.recvDead = dead
	n.recvWG.Add(1)
	go func() {
		defer n.recvWG.Done()
		n.labelEntity("recv")
		n.recvLoop(qp, stop, dead)
	}()
	return nil
}

// postRecvPool offers the receive pool upstream: it posts every free
// buffer on qp and installs the repost path for released ones.
func (n *node) postRecvPool(qp rdma.QueuePair) error {
	// Install the repost target and collect the postable buffers under
	// one lock: buffers pinned by frames still in the pipeline (a
	// replacement can restart the receiver while the join entity holds
	// views) must not be posted — their release will repost them through
	// the new qp.
	n.recvMu.Lock()
	n.repostQP = qp
	post := make([]*rdma.Buffer, 0, len(n.recvBufs))
	for _, b := range n.recvBufs {
		if !n.pinned[b] {
			post = append(post, b)
		}
	}
	n.recvMu.Unlock()
	for _, b := range post {
		if err := qp.PostRecv(b); err != nil {
			return fmt.Errorf("ring: node %d: post receive: %w", n.id, err)
		}
	}
	return nil
}

// stopRecv quiesces the receiver and closes the inbound queue pair. The
// receive buffer pool is retained for a later beginRecv; buffers released
// while stopped are parked until then.
func (n *node) stopRecv() {
	if n.recvStop == nil {
		return
	}
	n.recvMu.Lock()
	n.repostQP = nil
	n.recvMu.Unlock()
	close(n.recvStop)
	if n.in != nil {
		_ = n.in.Close()
	}
	n.recvWG.Wait()
	n.recvStop = nil
}

// releaseRecv returns a receive buffer's credit to the transport once the
// pipeline is done with the frame it holds. It is the ring's one credit
// return: the join loop calls it where a hop is done with its frame —
// after staging the forward copy, after copying it to the spill buffer, at
// retirement — so no credit outlives its hop, whatever the loop blocks on
// next. With the receiver stopped (node replacement in progress) the
// buffer is parked unpinned; the next beginRecv posts it.
//
//cyclolint:hotpath
func (n *node) releaseRecv(buf *rdma.Buffer) {
	if buf == nil {
		return // locally injected fragment, no wire buffer
	}
	n.recvMu.Lock()
	delete(n.pinned, buf)
	qp := n.repostQP
	n.recvMu.Unlock()
	if qp == nil {
		return
	}
	if err := qp.PostRecv(buf); err != nil {
		// A receiver restart between the load above and this call closes
		// the old endpoint; the buffer is already unpinned, so the new
		// receiver posts it. Anything else is a real transport fault.
		if errors.Is(err, rdma.ErrClosed) {
			return
		}
		//cyclolint:coldpath transport fault: recovery or abort follows
		n.failLink(nil, false, qp, fmt.Errorf("ring: node %d: repost receive: %w", n.id, err))
	}
}

// recvLoop is the receive pump: it reaps the inbound completion queue and
// applies acceptRecv, the frame-of-completion rule, to every entry. A
// fault ends the pump; so does stop or quit, and every way out drains the
// queue first.
func (n *node) recvLoop(qp rdma.QueuePair, stop, dead chan struct{}) {
	var batch [reapBatch]rdma.Completion
	for {
		var c rdma.Completion
		var ok bool
		// Fast path: on a busy ring the next completion is usually already
		// queued — take it with one non-blocking receive instead of arming
		// the multi-way select (which locks every channel involved).
		select {
		case c, ok = <-qp.Completions():
		default:
			select {
			case <-stop:
				n.drainRecv(qp, nil)
				return
			case <-n.quit:
				n.drainRecv(qp, nil)
				return
			case c, ok = <-qp.Completions():
			}
		}
		if !ok {
			close(dead)
			return
		}
		// Bulk reap: one blocking receive, then drain whatever else the
		// transport already completed — one receiver wakeup per burst.
		batch[0] = c
		m := 1 + qp.PollCQ(batch[1:])
		for i := 0; i < m; i++ {
			if err := n.acceptRecv(batch[i]); err != nil {
				n.failLink(stop, false, qp, fmt.Errorf("ring: node %d: receive: %w", n.id, err))
				// Signal the terminal event BEFORE the drain: drainRecv
				// blocks until recovery closes the endpoint, and recovery
				// may be waiting on this signal to know the wire is dry.
				close(dead)
				n.drainRecv(qp, batch[i+1:m])
				return
			}
		}
	}
}

// drainRecv settles what the stopped pump still owes the pipeline: first
// the completions already moved out of the queue when a fault cut a reaped
// batch short (reaped), then the queue itself, to channel close. Both get
// the pump's own rule, so every frame the transport already placed is
// delivered: frames that arrived before a fault (or a deliberate endpoint
// stop) must reach the pipeline — dropping them here would lose them for
// good, since the upstream sender has already been told they were
// delivered. A fault among them changes nothing (the failure that stopped
// the pump is already on its way to Run), so acceptRecv's error is
// dropped. The queue pair is closed by the same stop/recovery path that
// lands here, so the loop is bounded.
func (n *node) drainRecv(qp rdma.QueuePair, reaped []rdma.Completion) {
	for _, c := range reaped {
		_ = n.acceptRecv(c)
	}
	for c := range qp.Completions() {
		_ = n.acceptRecv(c)
	}
}

// acceptRecv is the frame-of-completion rule: an OpRecv completion is a
// frame in the buffer this node posted, and any error is a link fault.
// Flushed (undelivered) buffers come back as error completions: the
// transport handing them back parks them, and the next receiver start
// reposts them.
func (n *node) acceptRecv(c rdma.Completion) error {
	if c.Err != nil {
		return c.Err
	}
	if c.Op == rdma.OpRecv {
		n.deliver(c.Buf, c.Buf.Bytes())
	}
	return nil
}

// deliver binds a received frame in place as a view and hands it to the
// join entity. The receive credit stays withheld until the pipeline
// releases the buffer — after the frame is staged into a send buffer, or
// at retirement — so a full procQ still translates into ring backpressure,
// now without a decode-materialize cycle on the way in.
//
// A receiver stop (node replacement, link recovery) deliberately does NOT
// abandon the handoff: the frame was delivered and acknowledged at the
// transport level, so it must survive the receiver restart — the join
// entity keeps running throughout and drains procQ.
//
//cyclolint:hotpath
func (n *node) deliver(buf *rdma.Buffer, frame []byte) {
	rspan := n.frecv.Begin(trace.PhaseReceive)
	v := n.views[buf]
	n.bindTick++
	var bindStart time.Time
	if n.bindTick&(timerSample-1) == 0 {
		bindStart = time.Now()
	}
	//cyclolint:sharesafe the view crosses to the join entity through procQ with its buffer credit, and is rebound only after the credit returns
	if err := v.Bind(frame, "rotating"); err != nil {
		//cyclolint:coldpath malformed frame: the node is about to stop
		n.report(fmt.Errorf("ring: node %d: decode: %w", n.id, err))
		// The receive still happened; record its span before bailing so
		// the trace shows the malformed delivery instead of a gap.
		n.frecv.End(rspan)
		return
	}
	if !bindStart.IsZero() {
		n.m.bindNs.Observe(time.Since(bindStart).Nanoseconds())
	}
	n.m.views.Inc()
	frag := v.Frag()
	rspan.Frag, rspan.Hop, rspan.Arg = int32(frag.Index), int32(frag.Hops), int64(len(frame))
	n.recvMu.Lock()
	n.pinned[buf] = true
	n.recvMu.Unlock()
	n.m.bytesIn.Add(int64(len(frame)))
	// The view rides the queue bound to live receive memory, and that is
	// the point: the buffer credit travels with it (buf stays pinned), and
	// the join loop releases the credit only after staging or Materialize.
	if !n.pushInput(n.procQ, n.procSpace, inflight{frag: frag, view: v, buf: buf}) {
		// Quitting with the frame undelivered: unpin so a later receiver
		// start reposts the buffer instead of leaking the credit.
		n.recvMu.Lock()
		delete(n.pinned, buf)
		n.recvMu.Unlock()
	}
	n.frecv.End(rspan)
}

// pushInput enqueues one fragment for the join entity, parking on space
// when the edge is full — that park is the ring's backpressure point.
// Returns false only when the node quits first.
//
//cyclolint:hotpath
func (n *node) pushInput(q *ringq.SPSC[inflight], space *ringq.Waiter, inf inflight) bool {
	if q.TryPush(inf) {
		n.joinWake.Signal()
		return true
	}
	for {
		for i := 0; i < spinPops; i++ {
			runtime.Gosched()
			if q.TryPush(inf) {
				n.joinWake.Signal()
				return true
			}
		}
		space.Prepare()
		if q.TryPush(inf) {
			n.joinWake.Signal()
			return true
		}
		select {
		case <-space.C():
		case <-n.quit:
			return false
		}
	}
}

// ---- join entity ----

// popInput takes the join entity's next fragment, wire arrivals before
// local injections.
//
//cyclolint:hotpath
func (n *node) popInput() (inflight, bool) {
	if inf, ok := n.procQ.TryPop(); ok {
		n.procSpace.Signal()
		return inf, true
	}
	if inf, ok := n.injectQ.TryPop(); ok {
		n.injectSpace.Signal()
		return inf, true
	}
	return inflight{}, false
}

// nextInput blocks for the join entity's next fragment.
func (n *node) nextInput() (inflight, bool) {
	if inf, ok := n.popInput(); ok {
		return inf, true
	}
	for {
		for i := 0; i < spinPops; i++ {
			runtime.Gosched()
			if inf, ok := n.popInput(); ok {
				return inf, true
			}
		}
		n.joinWake.Prepare()
		if inf, ok := n.popInput(); ok {
			return inf, true
		}
		select {
		case <-n.joinWake.C():
		case <-n.quit:
			return inflight{}, false
		}
	}
}

func (n *node) procLoop() {
	// The wait/join/stage spans tile this loop back to back — each one
	// begins at the clock read that ends the one before (Shard.Next) — so
	// the join-entity track has no gap, however long the thread is
	// descheduled: cyclotrace reconciles their sum against the track's
	// wall clock. A hop's hand-off — of its frame to sendQ, of its
	// retirement to Run — is its last act, so its stage span and stats
	// close first, and the hand-off runs in the next wait span.
	wpd, waitStart := n.fjoin.Begin(trace.PhaseWait), time.Now()
	for {
		inf, ok := n.nextInput()
		if !ok {
			// Close the wait span on shutdown: the terminal wait interval
			// is part of the join-entity track, not a gap.
			n.fjoin.End(wpd)
			return
		}
		// One clock read serves as both the end of the wait and the start
		// of Process: the bookkeeping between them is a handful of stores.
		procStart := time.Now()
		waited := procStart.Sub(waitStart)

		frag := inf.frag
		wpd.Frag, wpd.Hop = int32(frag.Index), int32(frag.Hops)
		jpd := n.fjoin.Next(wpd, trace.PhaseJoin)
		jpd.Frag, jpd.Hop, jpd.Arg = int32(frag.Index), int32(frag.Hops), int64(frag.Rel.Len())
		err := n.proc.Process(frag)
		procEnd := time.Now()
		procTime := procEnd.Sub(procStart)
		spd := n.fjoin.Next(jpd, trace.PhaseStage)
		spd.Frag, spd.Hop = int32(frag.Index), int32(frag.Hops)

		// The wait before a fragment that did arrive is "sync" time in
		// the paper's sense: the join entity starving on the transport.
		n.m.waitNs.Observe(waited.Nanoseconds())
		n.m.processNs.Observe(procTime.Nanoseconds())
		n.m.processed.Inc()

		if err != nil {
			n.report(fmt.Errorf("ring: node %d: process fragment %d: %w", n.id, frag.Index, err))
			n.fjoin.End(spd)
			return
		}

		frag.Hops++
		if frag.Hops >= n.cfg.Nodes {
			// Retirement: only the metadata travels on. The frame's bytes
			// live in registered receive memory whose credit goes straight
			// back to the transport; a consumer that needed the tuples
			// would inf.view.Materialize() before the release — today none
			// does, Run just counts revolutions.
			ret := retirement{index: frag.Index, hops: frag.Hops}
			n.m.retired.Inc()
			n.fjoin.Point(trace.PhaseRetire, int32(ret.index), int32(ret.hops), 0)
			n.releaseRecv(inf.buf)
			// Publishing the retirement is the hop's last act: Run returns
			// once it has drained them all, and its caller may then read
			// the spans, the stats and the credit pools.
			wpd = n.fjoin.Next(spd, trace.PhaseWait)
			waitStart = n.finishHop(procStart, procEnd)
			select {
			case n.retired <- ret:
			case <-n.quit:
				n.fjoin.End(wpd)
				return
			}
			continue
		}

		// Forwarding. Liveness rule: the receive credit goes back BEFORE
		// this loop blocks on anything send-side. Around the ring, "my
		// credit returns when my send progresses, my send progresses when
		// my neighbor credits me" is a circular wait; eager release after
		// Process breaks it. On the hot path a free send buffer is ready
		// and the frame is staged by one copy plus a 4-byte hops patch —
		// then released. Only when every send buffer is busy is the frame
		// copied out of registered memory into the node's spill buffer
		// (releasing the credit) and staged from there once a buffer frees
		// up. Either way the credit is back before the frame reaches sendQ,
		// so a downstream retirement — and with it Run's return — cannot
		// overtake it.
		var ob outbound
		if inf.view != nil {
			if buf, ok := n.freeSend.TryPop(); ok {
				// Snapshot the metadata before the release: the credit
				// return lets upstream overwrite the receive buffer, and
				// with it the view this fragment aliases.
				index, hops := frag.Index, frag.Hops
				sz, ok := n.stageForward(inf.view.Frame(), index, hops, buf)
				if !ok {
					// The node is stopping, but the pool must stay whole:
					// ReplaceNode restarts entities against these buffers,
					// and a dropped credit would shrink the send pool.
					n.freeSend.TryPush(buf)
					n.fjoin.End(spd)
					return
				}
				n.releaseRecv(inf.buf)
				ob = outbound{index: index, hops: hops, staged: buf, sz: sz}
			} else {
				var ok bool
				if ob, ok = n.spillForward(inf); !ok {
					n.fjoin.End(spd)
					return
				}
			}
		} else {
			var ok bool
			if ob, ok = n.encodeOutbound(inf.frag); !ok {
				n.fjoin.End(spd)
				return
			}
		}
		spd.Arg = int64(ob.sz)
		wpd = n.fjoin.Next(spd, trace.PhaseWait)
		waitStart = n.finishHop(procStart, procEnd)
		if !n.pushOutbound(ob) {
			n.fjoin.End(wpd)
			return
		}
	}
}

// finishHop closes a fragment's hop accounting with a single clock read:
// the interval since procEnd is staging time, the interval since procStart
// is the fragment's full residence on the join entity (the live hop
// histogram internal/health windows into p50/p99). Fragment-scoped — one
// extra time.Now per hop, in line with the loop's other clock reads. The
// read is returned: it also starts the join entity's next wait.
//
//cyclolint:hotpath
func (n *node) finishHop(procStart, procEnd time.Time) time.Time {
	end := time.Now()
	n.m.stageNs.Add(end.Sub(procEnd).Nanoseconds())
	n.m.hopNs.Observe(end.Sub(procStart).Nanoseconds())
	return end
}

// popFreeSend blocks for a free send buffer; quit aborts. The wait
// depends on downstream progress, so the caller has already returned any
// receive credit its fragment held.
func (n *node) popFreeSend() (*rdma.Buffer, bool) {
	if buf, ok := n.freeSend.TryPop(); ok {
		return buf, true
	}
	// Send-pool exhaustion is downstream backpressure: account the whole
	// slow-path wait as stall time. The fast path above pays no clock read.
	stallStart := time.Now()
	for {
		for i := 0; i < spinPops; i++ {
			runtime.Gosched()
			if buf, ok := n.freeSend.TryPop(); ok {
				n.m.stallNs.Add(time.Since(stallStart).Nanoseconds())
				return buf, true
			}
		}
		n.poolWake.Prepare()
		if buf, ok := n.freeSend.TryPop(); ok {
			n.m.stallNs.Add(time.Since(stallStart).Nanoseconds())
			return buf, true
		}
		select {
		case <-n.poolWake.C():
		case <-n.quit:
			return nil, false
		}
	}
}

// pushOutbound hands a staged frame to the transmitter. It never waits:
// every queued outbound holds one of the sendPool send buffers, and sendQ
// holds at least sendPool entries, so a full sendQ means the send pool
// is corrupt — a buffer staged twice. That is reported as an invariant
// fault, and the staged buffer goes back to the pool.
//
//cyclolint:hotpath
func (n *node) pushOutbound(ob outbound) bool {
	if !n.sendQ.TryPush(ob) {
		n.freeSend.TryPush(ob.staged)
		//cyclolint:coldpath invariant fault: the node is about to stop
		n.report(fmt.Errorf("ring: node %d: send queue full with fragment %d staged: it holds every send buffer, so the pool is corrupt", n.id, ob.index))
		return false
	}
	n.txWake.Signal()
	return true
}

// encodeOutbound waits for a free send buffer and fully serializes a
// locally injected fragment into it. Called only after any receive credit the fragment
// depended on has been released.
func (n *node) encodeOutbound(frag *relation.Fragment) (outbound, bool) {
	buf, ok := n.popFreeSend()
	if !ok {
		return outbound{}, false
	}
	sz, ok := n.stageEncode(frag, buf)
	if !ok {
		// Return the credit even though the node is stopping: the send
		// pool is registered once and must survive node replacement.
		n.freeSend.TryPush(buf)
		return outbound{}, false
	}
	return outbound{index: frag.Index, hops: frag.Hops, staged: buf, sz: sz}, true
}

// inject hands a locally stored fragment to the join entity, as if it had
// just arrived. It reports false if the node is shutting down.
func (n *node) inject(frag *relation.Fragment) bool {
	return n.pushInput(n.injectQ, n.injectSpace, inflight{frag: frag}) //cyclolint:role Run's inline tryInject precedes the loader goroutine hand-off; the two producers never overlap
}

// tryInject is inject's non-blocking fast path: push or report a full edge,
// never park. Run uses it to inject inline before paying for a goroutine.
func (n *node) tryInject(frag *relation.Fragment) bool {
	if !n.injectQ.TryPush(inflight{frag: frag}) {
		return false
	}
	n.joinWake.Signal()
	return true
}

// ---- transmitter ----

// beginSend (re)starts the transmitter on qp: the transmit loop and the
// reaper of its completions.
func (n *node) beginSend(qp rdma.QueuePair) {
	n.out = qp
	n.sendStop = make(chan struct{})
	stop := n.sendStop
	n.sendWG.Add(2)
	go func() {
		defer n.sendWG.Done()
		n.labelEntity("send")
		n.sendLoop(qp, stop)
	}()
	go func() {
		defer n.sendWG.Done()
		n.labelEntity("send")
		n.sendReaper(qp, stop)
	}()
}

// stopSend quiesces the transmitter and closes the outbound queue pair.
func (n *node) stopSend() {
	if n.sendStop == nil {
		return
	}
	close(n.sendStop)
	if n.out != nil {
		_ = n.out.Close()
	}
	n.sendWG.Wait()
	n.sendStop = nil
}

// spillForward is a forwarding hop's congestion fallback, taken when no
// send buffer is free: it copies the frame into the node's spill buffer,
// returns the receive credit, waits for a send buffer and stages the copy
// there. The spill buffer grows to the largest frame once and is free again
// before the join loop takes its next fragment, so the fallback allocates
// nothing after its first use.
func (n *node) spillForward(inf inflight) (outbound, bool) {
	// Snapshot the metadata before the release, as the fast path does.
	index, hops := inf.frag.Index, inf.frag.Hops
	n.spill = append(n.spill[:0], inf.view.Frame()...)
	n.m.materializes.Inc()
	n.releaseRecv(inf.buf)
	buf, ok := n.popFreeSend()
	if !ok {
		return outbound{}, false
	}
	sz, ok := n.stageForward(n.spill, index, hops, buf)
	if !ok {
		// As on the fast path: the pool must stay whole.
		n.freeSend.TryPush(buf)
		return outbound{}, false
	}
	return outbound{index: index, hops: hops, staged: buf, sz: sz}, true
}

// stageForward copies fragment index's encoded frame into the registered
// send buffer and patches the 4-byte hops field in place — the entire
// per-hop cost of forwarding a fragment that arrived off the wire. No
// decode, no re-encode, no allocation.
//
//cyclolint:hotpath
func (n *node) stageForward(frame []byte, index, hops int, buf *rdma.Buffer) (int, bool) {
	if len(frame) > buf.Cap() {
		//cyclolint:coldpath misconfiguration fault: the node is about to stop
		n.report(fmt.Errorf("ring: node %d: fragment %d frame is %d B, buffers are %d B; raise Config.BufferBytes",
			n.id, index, len(frame), buf.Cap()))
		return 0, false
	}
	n.stageTick++
	var stageStart time.Time
	if n.stageTick&(timerSample-1) == 0 {
		stageStart = time.Now()
	}
	dst := buf.Data()[:len(frame)]
	copy(dst, frame)
	if err := relation.SetFrameHops(dst, hops); err != nil {
		//cyclolint:coldpath corrupt frame fault: the node is about to stop
		n.report(fmt.Errorf("ring: node %d: patch forwarded frame: %w", n.id, err))
		return 0, false
	}
	if err := buf.SetLen(len(frame)); err != nil {
		n.report(err)
		return 0, false
	}
	if !stageStart.IsZero() {
		n.m.forwardNs.Observe(time.Since(stageStart).Nanoseconds())
	}
	n.m.forwards.Inc()
	return len(frame), true
}

// stageEncode fully serializes a locally injected fragment into the
// registered send buffer.
func (n *node) stageEncode(frag *relation.Fragment, buf *rdma.Buffer) (int, bool) {
	need := relation.EncodedSize(frag)
	if need > buf.Cap() {
		n.report(fmt.Errorf("ring: node %d: fragment %d needs %d B, buffers are %d B; raise Config.BufferBytes",
			n.id, frag.Index, need, buf.Cap()))
		return 0, false
	}
	encodeStart := time.Now()
	sz, err := relation.Encode(frag, buf.Data())
	if err != nil {
		n.report(fmt.Errorf("ring: node %d: encode: %w", n.id, err))
		return 0, false
	}
	if err := buf.SetLen(sz); err != nil {
		n.report(err)
		return 0, false
	}
	n.m.encodeNs.Observe(time.Since(encodeStart).Nanoseconds())
	n.m.encodes.Inc()
	return sz, true
}

// popOutbound takes the transmitter's next frame, re-routed retained
// frames (requeueQ, link recovery) before freshly staged ones.
//
//cyclolint:hotpath
func (n *node) popOutbound() (outbound, bool) {
	if ob, ok := n.requeueQ.TryPop(); ok {
		return ob, true
	}
	if ob, ok := n.sendQ.TryPop(); ok {
		return ob, true
	}
	return outbound{}, false
}

// nextOutbound blocks for the transmitter's next frame; stop and quit
// abort.
func (n *node) nextOutbound(stop chan struct{}) (outbound, bool) {
	if ob, ok := n.popOutbound(); ok {
		return ob, true
	}
	for {
		for i := 0; i < spinPops; i++ {
			runtime.Gosched()
			if ob, ok := n.popOutbound(); ok {
				return ob, true
			}
		}
		n.txWake.Prepare()
		if ob, ok := n.popOutbound(); ok {
			return ob, true
		}
		select {
		case <-n.txWake.C():
		case <-stop:
			return outbound{}, false
		case <-n.quit:
			return outbound{}, false
		}
	}
}

// sendLoop is the transmit loop: dequeue, coalesce, track, account, post.
// A burst goes out as one batched post — a single doorbell at the
// transport.
func (n *node) sendLoop(qp rdma.QueuePair, stop chan struct{}) {
	// The batch arrays live for the loop's lifetime: the doorbell batch
	// costs no per-frame allocation.
	var batch [txBatch]outbound
	var bufs [txBatch]*rdma.Buffer
	for {
		ob, ok := n.nextOutbound(stop)
		if !ok {
			return
		}
		// Coalesce everything already staged behind it — one post for the
		// whole burst.
		batch[0] = ob
		m := 1
		for m < txBatch {
			ob, ok := n.popOutbound()
			if !ok {
				break
			}
			batch[m] = ob
			m++
		}
		total := 0
		for _, ob := range batch[:m] {
			// Track the frame as undelivered from the moment it leaves
			// the queue: whatever fails from here on — the post below or
			// the completion later — leaves the entry for recovery to
			// re-route (posts are prefix-atomic, so an unposted suffix
			// simply stays tracked with no completion to come).
			n.trackInflight(ob.staged, ob)
			total += ob.sz
		}
		// Account the burst before it is posted, not after: the post is
		// what lets the downstream hops — and with the last of them Run —
		// complete, and whoever reads the stats after Run must find this
		// burst in them.
		n.m.bytesOut.Add(int64(total))
		for i, ob := range batch[:m] {
			n.beginSendSpan(ob)
			bufs[i] = ob.staged
		}
		if err := qp.PostSendBatch(bufs[:m]); err != nil {
			n.failLink(stop, true, qp, fmt.Errorf("ring: node %d: post send: %w", n.id, err))
			return
		}
	}
}

// sendReaper consumes the outbound endpoint's completion queue: a send
// completion confirms a frame's delivery (settleSend), and an error — or
// any other completion, since this node posts no receives here — is a
// link fault. It reaps in bulk: one blocking receive per burst, then a
// PollCQ drain.
//
//cyclolint:hotpath
func (n *node) sendReaper(qp rdma.QueuePair, stop chan struct{}) {
	var batch [reapBatch]rdma.Completion
	for {
		var c rdma.Completion
		var ok bool
		// Fast path mirrors recvLoop: skip the select when a completion is
		// already waiting.
		select {
		case c, ok = <-qp.Completions():
		default:
			select {
			case <-stop:
				n.drainSendCQ(qp, nil)
				return
			case <-n.quit:
				n.drainSendCQ(qp, nil)
				return
			case c, ok = <-qp.Completions():
			}
		}
		if !ok {
			return
		}
		batch[0] = c
		m := 1 + qp.PollCQ(batch[1:])
		for i := 0; i < m; i++ {
			c := batch[i]
			if c.Err == nil && c.Op == rdma.OpSend {
				n.settleSend(c)
				continue
			}
			fault := c.Err
			if fault == nil {
				//cyclolint:coldpath protocol fault: recovery or abort follows
				fault = fmt.Errorf("%s completion on the outbound endpoint", c.Op)
			}
			//cyclolint:coldpath transport fault: recovery or abort follows
			n.failLink(stop, true, qp, fmt.Errorf("ring: node %d: send: %w", n.id, fault))
			n.drainSendCQ(qp, batch[i+1:m])
			return
		}
	}
}

// drainSendCQ settles what the stopped reaper still owes recovery: first
// the completions already moved out of the queue when a fault cut a reaped
// batch short (reaped), then the queue itself, to channel close. This is
// what makes the recovery snapshot exact: success completions queued
// behind a failure (or still unread when a stop lands) are confirmed
// deliveries whose frames must NOT be re-sent, and error/flush completions
// leave their frames tracked for re-routing. The queue pair is closed by
// the same stop/recovery path that lands here, so the loop is bounded.
func (n *node) drainSendCQ(qp rdma.QueuePair, reaped []rdma.Completion) {
	for _, c := range reaped {
		n.settleSend(c)
	}
	for c := range qp.Completions() {
		n.settleSend(c)
	}
}

// settleSend applies one outbound completion to the send pipeline's
// books. A successful send confirms its frame's delivery: the frame is
// untracked from the recovery retention map and its buffer returns to the
// free pool (freeSend's push never fails — its capacity covers the pool).
// A failed one only closes its send span; the frame stays tracked for
// re-routing.
//
//cyclolint:hotpath
func (n *node) settleSend(c rdma.Completion) {
	n.endSendSpan(c.Buf)
	if c.Err != nil || c.Op != rdma.OpSend {
		return
	}
	n.untrackInflight(c.Buf)
	n.freeSend.TryPush(c.Buf)
	n.poolWake.Signal()
}

// beginSendSpan opens ob's PhaseSend span as its frame is posted. The
// span runs from post to completion (closed by the reaper), covering the
// transport's whole handling of the frame.
//
//cyclolint:hotpath
func (n *node) beginSendSpan(ob outbound) {
	spd := n.fsend.Begin(trace.PhaseSend)
	spd.Frag, spd.Hop, spd.Arg = int32(ob.index), int32(ob.hops), int64(ob.sz)
	if spd.Active() {
		n.pendMu.Lock()
		n.sendPend[ob.staged] = spd
		n.pendMu.Unlock()
	}
}

// endSendSpan closes the PhaseSend span opened when buf was posted.
//
//cyclolint:hotpath
func (n *node) endSendSpan(buf *rdma.Buffer) {
	if !n.fsend.Enabled() {
		return
	}
	n.pendMu.Lock()
	spd, ok := n.sendPend[buf]
	if ok {
		delete(n.sendPend, buf)
	}
	n.pendMu.Unlock()
	if ok {
		n.fsend.End(spd)
	}
}

// ---- lifecycle ----

func (n *node) stop() {
	n.quitOnce.Do(func() { close(n.quit) })
	n.stopRecv()
	n.stopSend()
	// A join entity stuck inside Processor.Process cannot be interrupted;
	// bound the wait and abandon it rather than wedging shutdown.
	if !waitTimeout(&n.procWG, 2*time.Second) {
		n.report(fmt.Errorf("ring: node %d: join entity did not stop; abandoned", n.id))
	}
}

// waitTimeout waits on wg up to d. The timer is stopped on the happy path
// instead of lingering until it fires (time.After would strand it for the
// full duration). The watcher goroutine itself cannot be cancelled —
// sync.WaitGroup has no cancellable wait — but it holds no timer and exits
// the moment the group finishes, so an abandoned join entity leaks exactly
// one parked goroutine and nothing else.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

func (n *node) report(err error) {
	select {
	case <-n.quit:
		return
	default:
	}
	select {
	case n.errc <- err:
	default:
		// Another error is already pending; the first one wins.
	}
}
