// Package trace is the flight recorder of the Data Roundabout runtime: the
// Recorder captures begin/end span pairs from every layer of the stack —
// ring entities (receive/wait/join/stage/send), the transports
// (work-request post → completion, credit stalls) and the local join
// algorithms (build/probe, sort/merge) — cheaply enough to stay on in
// production. Analyze and Attribute turn a recording into per-node phase
// breakdowns and revolution latencies; WritePerfetto exports it.
//
// Design constraints, in order:
//
//   - Zero allocations and no global mutex on the hot path. Every producer
//     (one goroutine, typically) records into its own Shard: a fixed-size
//     ring of Span values guarded by a shard-local, uncontended mutex.
//     Begin reads one atomic bool and the monotonic clock; End writes one
//     Span slot. Disabled, the whole path is a single atomic load.
//   - Bounded memory. A full shard overwrites its oldest span and counts
//     the loss (Dropped); nothing grows without bound.
//   - Reconstructable revolutions. Spans carry the correlation key — the
//     fragment index and its revolution hop — so a fragment's full trip
//     around the ring can be stitched back together across nodes.
//
// Shards are created at wiring time (node construction, link construction,
// join setup), never per event. Enable the recorder *before* building the
// components to be recorded: while disabled, Shard returns a shared inert
// shard, so tests and untraced runs pay nothing — in allocations or in
// registry growth.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultShardCap is the per-producer span capacity used when Enable is
// given a non-positive cap (4096 spans ≈ 300 KB per shard).
const DefaultShardCap = 4096

// NodeTransport labels spans recorded below the ring layer (memlink and
// tcplink shards), which belong to a link rather than a ring position.
const NodeTransport = -1

// Phase classifies what a span measures. Phases 1–6 are the ring-level
// pipeline the cost-breakdown analyzer tiles a node's wall clock with;
// the rest are transport- and join-internal detail.
type Phase uint8

const (
	// PhaseReceive: receiver work from completion arrival to handing the
	// bound view to the join entity (includes procQ backpressure).
	PhaseReceive Phase = iota + 1
	// PhaseWait: the join entity starving on the transport — the paper's
	// "sync" time.
	PhaseWait
	// PhaseJoin: inside Processor.Process.
	PhaseJoin
	// PhaseStage: post-join disposition — staging the forwarded frame (or
	// materializing under congestion), releasing the receive credit,
	// queueing to the transmitter or retiring.
	PhaseStage
	// PhaseSend: transmitter residency, post → completion.
	PhaseSend
	// PhaseRetire: instant — the fragment completed its revolution here.
	PhaseRetire
	// PhaseBuild: hash-join setup (radix-cluster + table build).
	PhaseBuild
	// PhaseProbe: one hash-join worker's probe range.
	PhaseProbe
	// PhaseSort: sort-merge setup (the key-prefix order and its directory).
	PhaseSort
	// PhaseMerge: one sort-merge worker's merge range.
	PhaseMerge
	// PhaseWRSend: a two-sided send work request, post → completion.
	PhaseWRSend
	// PhaseWRWrite: a one-sided write work request, post → completion.
	PhaseWRWrite
	// PhaseWRRecv: a posted receive buffer's residency, post → filled.
	PhaseWRRecv
	// PhaseCreditStall: a sender blocked because the receiver advertised
	// no buffer (RNR backpressure / exhausted write credits).
	PhaseCreditStall
	// PhaseFault: an injected (or detected) link fault. Instant for drops
	// and corrupted doorbells; an interval for injected delays, covering
	// the time the frame was held back.
	PhaseFault
	// PhaseRelink: ring-level link recovery, failure detection → link
	// re-established and retained frames re-routed. Arg carries the
	// number of re-dial attempts.
	PhaseRelink
)

// phaseNames is the wire naming, shared by String and the Perfetto parser.
var phaseNames = map[Phase]string{
	PhaseReceive:     "receive",
	PhaseWait:        "wait",
	PhaseJoin:        "join",
	PhaseStage:       "stage",
	PhaseSend:        "send",
	PhaseRetire:      "retire",
	PhaseBuild:       "build",
	PhaseProbe:       "probe",
	PhaseSort:        "sort",
	PhaseMerge:       "merge",
	PhaseWRSend:      "wr-send",
	PhaseWRWrite:     "wr-write",
	PhaseWRRecv:      "wr-recv",
	PhaseCreditStall: "credit-stall",
	PhaseFault:       "fault",
	PhaseRelink:      "relink",
}

// String implements fmt.Stringer.
func (p Phase) String() string {
	if s, ok := phaseNames[p]; ok {
		return s
	}
	return "phase(?)"
}

// Span is one recorded interval (or instant, when Dur is zero). Times are
// nanoseconds since the owning Recorder's epoch, read from the monotonic
// clock.
type Span struct {
	// Start is the span's begin time, ns since the recording epoch.
	Start int64
	// Dur is the span length in ns; zero marks an instant (Point) event.
	Dur int64
	// Node is the ring position, or NodeTransport for link-level spans.
	Node int32
	// Track identifies the producing shard (unique per Recorder).
	Track int32
	// Phase classifies the span.
	Phase Phase
	// Frag and Hop are the correlation key: the fragment index and its
	// revolution hop count. -1 when the span is not fragment-scoped.
	Frag, Hop int32
	// Arg is the span's primary magnitude: wire bytes for transport
	// spans, tuples for join spans.
	Arg int64
	// Aux is a secondary magnitude: for work-request spans, the CQ
	// backlog observed when the completion was delivered — the poll
	// batching the application sees.
	Aux int64
}

// End returns the span's end time (ns since the epoch).
func (s Span) End() int64 { return s.Start + s.Dur }

// TrackInfo names one shard for export: which node it belongs to and what
// entity produced it ("recv", "join", "send", "memlink/3", "join/probe/0").
type TrackInfo struct {
	ID     int32
	Node   int
	Entity string
}

// Recorder owns the sharded span buffers. The zero value is NOT usable —
// obtain one from NewRecorder (enabled) or Flight() (the process-wide
// recorder, inert until Enable).
type Recorder struct {
	epoch   time.Time
	enabled atomic.Bool

	mu       sync.Mutex
	shardCap int
	shards   []*Shard
	tracks   []TrackInfo
}

// flightRec is the process-wide recorder behind Flight.
var flightRec = &Recorder{epoch: time.Now()}

// Flight returns the process-wide flight recorder. It records nothing —
// and costs one atomic load per would-be event — until Enable is called.
func Flight() *Recorder { return flightRec }

// NewRecorder returns a private recorder, already enabled with the given
// per-shard span capacity (<=0 means DefaultShardCap).
func NewRecorder(shardCap int) *Recorder {
	r := &Recorder{epoch: time.Now()}
	r.Enable(shardCap)
	return r
}

// Enable turns the recorder on with the given per-shard span capacity
// (<=0 means DefaultShardCap). Shards created before Enable stay inert:
// enable the recorder before constructing the components to be traced.
// Enabling twice is a no-op.
func (r *Recorder) Enable(shardCap int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.enabled.Load() {
		return
	}
	if shardCap <= 0 {
		shardCap = DefaultShardCap
	}
	if r.epoch.IsZero() {
		// A zero-value Recorder enabled directly (tests): anchor the
		// epoch now so span timestamps stay small and monotonic.
		r.epoch = time.Now()
	}
	r.shardCap = shardCap
	r.enabled.Store(true)
}

// Enabled reports whether the recorder is capturing spans.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// Epoch is the wall-clock instant span timestamps are relative to.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// now is the hot-path clock: monotonic ns since the epoch, never zero (a
// zero start is the "disabled" sentinel inside Pending).
//
//cyclolint:hotpath
func (r *Recorder) now() int64 {
	d := time.Since(r.epoch).Nanoseconds()
	if d <= 0 {
		return 1
	}
	return d
}

// Shard registers a new producer track and returns its shard. While the
// recorder is disabled it returns a shared inert shard whose operations
// are no-ops, so construction-time wiring is free for untraced runs.
// Each shard is a single-producer ring in spirit; its mutex is for the
// snapshot reader and the rare second producer (e.g. a peer-delivered
// completion) and is effectively uncontended.
func (r *Recorder) Shard(node int, entity string) *Shard {
	if !r.enabled.Load() {
		return nopShard
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.tracks))
	s := &Shard{rec: r, node: int32(node), track: id, buf: make([]Span, r.shardCap)}
	r.shards = append(r.shards, s)
	r.tracks = append(r.tracks, TrackInfo{ID: id, Node: node, Entity: entity})
	return s
}

// Tracks returns the registered shard descriptors.
func (r *Recorder) Tracks() []TrackInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]TrackInfo(nil), r.tracks...)
}

// Snapshot copies every retained span, merged across shards and sorted by
// start time. Cold path: it allocates freely.
func (r *Recorder) Snapshot() []Span {
	r.mu.Lock()
	shards := append([]*Shard(nil), r.shards...)
	r.mu.Unlock()
	var out []Span
	for _, s := range shards {
		s.mu.Lock()
		for i := 0; i < s.n; i++ {
			j := s.head + i
			if j >= len(s.buf) {
				j -= len(s.buf)
			}
			out = append(out, s.buf[j])
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Track < out[j].Track
	})
	return out
}

// Dropped totals spans overwritten because their shard was full.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	shards := append([]*Shard(nil), r.shards...)
	r.mu.Unlock()
	var total int64
	for _, s := range shards {
		s.mu.Lock()
		total += s.dropped
		s.mu.Unlock()
	}
	return total
}

// Reset discards every retained span and drop count; shards stay
// registered. Useful between repeated runs sharing one recorder.
func (r *Recorder) Reset() {
	r.mu.Lock()
	shards := append([]*Shard(nil), r.shards...)
	r.mu.Unlock()
	for _, s := range shards {
		s.mu.Lock()
		s.head, s.n, s.dropped = 0, 0, 0
		s.mu.Unlock()
	}
}

// Shard is one producer's bounded span ring. Methods are safe for
// concurrent use but designed for a single producing goroutine.
type Shard struct {
	rec   *Recorder
	node  int32
	track int32

	mu      sync.Mutex
	buf     []Span
	head, n int
	dropped int64
}

// nopShard is what Shard() hands out while the recorder is disabled: rec
// is nil and buf is empty, so Begin/Point/End all no-op.
var nopShard = &Shard{}

// NopShard returns the shared inert shard, for code paths that may run
// before any recorder wiring exists.
func NopShard() *Shard { return nopShard }

// Enabled reports whether spans recorded here are retained. False for the
// inert shard of a disabled recorder.
func (s *Shard) Enabled() bool { return s.rec != nil && s.rec.enabled.Load() }

// Pending is an open span returned by Begin. It is a plain value — carry
// it on the stack (or inside a work request), fill in the correlation
// fields, and hand it to End. A Pending from a disabled recorder is inert.
type Pending struct {
	start int64
	phase Phase
	// Frag and Hop are the correlation key; Begin presets them to -1.
	Frag, Hop int32
	// Arg and Aux become the span's magnitudes. A Pending is a plain
	// value owned by whichever goroutine carries it; when one rides
	// inside a work request the queue hand-off orders the accesses.
	//
	//cyclolint:sharesafe a Pending is stack-carried; cross-goroutine moves ride queue hand-offs
	Arg, Aux int64
}

// Active reports whether the span is being recorded — callers can skip
// side bookkeeping (correlation maps) for inert pendings.
func (p Pending) Active() bool { return p.start != 0 }

// Begin opens a span. Cost while enabled: one atomic load plus one
// monotonic clock read; zero allocations. While disabled: one nil check.
//
//cyclolint:hotpath
func (s *Shard) Begin(p Phase) Pending {
	if s.rec == nil || !s.rec.enabled.Load() {
		return Pending{}
	}
	return Pending{start: s.rec.now(), phase: p, Frag: -1, Hop: -1}
}

// End closes a span and records it. The duration is clamped to >=1 ns so
// interval spans are always distinguishable from Point instants (Dur 0).
//
//cyclolint:hotpath
func (s *Shard) End(pd Pending) {
	if pd.start == 0 {
		return
	}
	dur := s.rec.now() - pd.start
	if dur <= 0 {
		dur = 1
	}
	s.write(Span{Start: pd.start, Dur: dur, Phase: pd.phase, Frag: pd.Frag, Hop: pd.Hop, Arg: pd.Arg, Aux: pd.Aux})
}

// Point records an instant event (Dur 0), e.g. a fragment retirement.
//
//cyclolint:hotpath
func (s *Shard) Point(p Phase, frag, hop int32, arg int64) {
	if s.rec == nil || !s.rec.enabled.Load() {
		return
	}
	s.write(Span{Start: s.rec.now(), Phase: p, Frag: frag, Hop: hop, Arg: arg})
}

// write stores one span, overwriting the oldest when full. No allocation:
// the ring was sized at Shard creation.
//
//cyclolint:hotpath
func (s *Shard) write(sp Span) {
	sp.Node = s.node
	sp.Track = s.track
	s.mu.Lock()
	if s.n < len(s.buf) {
		i := s.head + s.n
		if i >= len(s.buf) {
			i -= len(s.buf)
		}
		s.buf[i] = sp
		s.n++
	} else if len(s.buf) > 0 {
		s.buf[s.head] = sp
		s.head++
		if s.head == len(s.buf) {
			s.head = 0
		}
		s.dropped++
	}
	s.mu.Unlock()
}

// Len returns the number of retained spans.
func (s *Shard) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Dropped returns the number of spans overwritten on this shard.
func (s *Shard) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
