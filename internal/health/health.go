// Package health is the ring's live telemetry pipeline: it samples each
// node's hot-path counters on a ticker (plain atomic loads — the hot path
// never knows it is being watched), differences successive snapshots into
// rolling windows, and runs the same attribution model the offline
// cyclotrace analyzer uses (trace.Attribute) over the windowed phase
// totals — continuously, with a typed verdict. A flagged straggler can be
// profiled on demand; the pprof goroutine labels the ring sets
// (cyclo_node/cyclo_entity) attribute the samples per node.
//
// Publication is lock-free: each tick builds a fresh immutable Snapshot
// and swaps it into an atomic pointer; readers (the SSE handler, the
// Prometheus gauges, cyclobench's -health table) never block the sampler
// and the sampler never blocks them. See DESIGN.md §12.
package health

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cyclojoin/internal/metrics"
	"cyclojoin/internal/ring"
	"cyclojoin/internal/trace"
)

// Source is what the sampler observes each tick. *ring.Ring implements
// it; tests substitute synthetic sources.
type Source interface {
	Stats(dst []ring.NodeStats) []ring.NodeStats
}

// VerdictKind classifies the ring's condition, worst first.
type VerdictKind int

const (
	// Healthy: no node dominates, no link stalls, no faults this window.
	Healthy VerdictKind = iota
	// Straggler: one node's busy time dwarfs the others' — the ring
	// spins at that node's pace (the paper's dizzy node).
	Straggler
	// CreditStall: a link's sender spends an outsized share of the
	// window waiting on send credits — downstream backpressure.
	CreditStall
	// Degraded: the ring observed link failures this window; recovery
	// or partial results follow.
	Degraded
)

var verdictNames = map[VerdictKind]string{
	Healthy:     "healthy",
	Straggler:   "straggler",
	CreditStall: "credit-stall",
	Degraded:    "degraded",
}

func (k VerdictKind) String() string {
	if s, ok := verdictNames[k]; ok {
		return s
	}
	return fmt.Sprintf("verdict(%d)", int(k))
}

// MarshalText renders the kind as its name in JSON payloads.
func (k VerdictKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name (cyclotop decodes snapshots).
func (k *VerdictKind) UnmarshalText(b []byte) error {
	for kind, name := range verdictNames {
		if name == string(b) {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("health: unknown verdict kind %q", b)
}

// Verdict is the sampler's typed conclusion for one window.
type Verdict struct {
	Kind VerdictKind `json:"kind"`
	// Node is the flagged ring position (straggler or stalling sender),
	// -1 when not node-scoped.
	Node int `json:"node"`
	// Link names the flagged directed link ("2→0"), empty otherwise.
	Link string `json:"link,omitempty"`
	// Score is the straggler ratio (flagged busy / mean others' busy)
	// or, for credit stalls, the stall share of the window.
	Score float64 `json:"score,omitempty"`
	// Reason is a one-line human explanation.
	Reason string `json:"reason,omitempty"`
}

// NodeSample is one node's windowed view.
type NodeSample struct {
	Node int `json:"node"`
	// EWMA-smoothed shares of the sampling window (0..1, and busy can
	// exceed 1 briefly when a long Process call straddles windows).
	BusyShare  float64 `json:"busy_share"`
	WaitShare  float64 `json:"wait_share"`
	JoinShare  float64 `json:"join_share"`
	StageShare float64 `json:"stage_share"`
	StallShare float64 `json:"stall_share"`
	// Windowed hop-latency percentiles (fragment residence on the join
	// entity), from the log-linear windowed histogram.
	HopP50Ns int64 `json:"hop_p50_ns"`
	HopP99Ns int64 `json:"hop_p99_ns"`
	// FragsPerSec is the window's processing rate.
	FragsPerSec float64 `json:"frags_per_sec"`
	// Window deltas and point-in-time readings.
	Processed    int64 `json:"processed"`
	Materializes int64 `json:"materializes"`
	QueueDepth   int64 `json:"queue_depth"`
}

// LinkFaults is one directed link's cumulative failure count, read from
// its sending node's NodeStats.LinkFailures.
type LinkFaults struct {
	Link     string `json:"link"`
	Failures int64  `json:"failures"`
}

// Snapshot is one published tick: immutable once swapped in.
type Snapshot struct {
	Seq      int64         `json:"seq"`
	Time     time.Time     `json:"time"`
	Window   time.Duration `json:"window_ns"`
	Nodes    []NodeSample  `json:"nodes"`
	Verdict  Verdict       `json:"verdict"`
	Faults   []LinkFaults  `json:"faults,omitempty"`
	Slowest  int           `json:"slowest_node"`
	Starved  int           `json:"most_starved_node"`
	Score    float64       `json:"straggler_score"`
	Captures int64         `json:"profile_captures"`
}

// Options tunes the sampler; zero values take the defaults noted.
type Options struct {
	// Interval between samples (default 250ms).
	Interval time.Duration
	// Windows kept in the rolling hop histograms (default 8).
	Windows int
	// Alpha is the EWMA smoothing factor for phase shares (default 0.5:
	// responsive within two windows, immune to one-tick blips).
	Alpha float64
	// StragglerScore flags a node whose busy time exceeds the others'
	// mean by this ratio (default 2.0).
	StragglerScore float64
	// MinBusyShare keeps an idle ring from flagging noise: the flagged
	// node's busy share must reach this floor (default 0.10).
	MinBusyShare float64
	// StallShare flags a link whose sender stalled for at least this
	// share of the window (default 0.25).
	StallShare float64
	// AutoProfile > 0 captures a CPU profile of that duration when the
	// verdict transitions into Straggler (one capture in flight at a
	// time; fetch with LastProfile).
	AutoProfile time.Duration
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 250 * time.Millisecond
	}
	if o.Windows <= 0 {
		o.Windows = 8
	}
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = 0.5
	}
	if o.StragglerScore <= 1 {
		o.StragglerScore = 2.0
	}
	if o.MinBusyShare <= 0 {
		o.MinBusyShare = 0.10
	}
	if o.StallShare <= 0 {
		o.StallShare = 0.25
	}
	return o
}

// nodeState is the sampler's per-node working memory between ticks.
type nodeState struct {
	ewmaBusy, ewmaWait, ewmaJoin, ewmaStage, ewmaStall float64
	warm                                               bool
	hop                                                *WindowedHistogram
	prevHop                                            []int64
	deltaHop                                           []int64
	g                                                  nodeGauges
}

// nodeGauges are the per-node Prometheus series the sampler refreshes.
type nodeGauges struct {
	busy, wait, stall *metrics.Gauge
	hopP50, hopP99    *metrics.Gauge
}

// samplerMetrics are the ring-wide health series.
type samplerMetrics struct {
	samples  *metrics.Counter
	verdict  *metrics.Gauge
	score    *metrics.Gauge
	captures *metrics.Counter
}

func newSamplerMetrics() samplerMetrics {
	r := metrics.Default()
	return samplerMetrics{
		samples:  r.Counter("health_samples_total", "health sampler ticks"),
		verdict:  r.Gauge("health_verdict_state", "current verdict: 0 healthy, 1 straggler, 2 credit-stall, 3 degraded"),
		score:    r.Gauge("health_straggler_score_permille", "busy ratio of the slowest node to the others' mean, x1000"),
		captures: r.Counter("health_profile_captures_total", "auto-captured straggler CPU profiles"),
	}
}

func newNodeGauges(id int) nodeGauges {
	r := metrics.Default()
	node := strconv.Itoa(id)
	return nodeGauges{
		busy:   r.Gauge("health_node_busy_permille", "windowed busy (join+stage) share of wall clock, x1000", "node", node),
		wait:   r.Gauge("health_node_wait_permille", "windowed starvation share of wall clock, x1000", "node", node),
		stall:  r.Gauge("health_node_stall_permille", "windowed send-backpressure share of wall clock, x1000", "node", node),
		hopP50: r.Gauge("health_hop_p50_ns", "windowed hop-latency p50", "node", node),
		hopP99: r.Gauge("health_hop_p99_ns", "windowed hop-latency p99", "node", node),
	}
}

// Sampler runs the pipeline. Construct with NewSampler; Start launches
// the ticker goroutine, or call SampleOnce from your own cadence (tests).
type Sampler struct {
	src Source
	opt Options
	m   samplerMetrics

	cur      atomic.Pointer[Snapshot]
	seq      atomic.Int64
	captures atomic.Int64

	mu       sync.Mutex
	subs     map[chan *Snapshot]struct{}
	prev     []ring.NodeStats
	scratch  []ring.NodeStats
	prevTime time.Time
	states   map[int]*nodeState
	lastKind VerdictKind
	profile  []byte
	profBusy bool

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewSampler builds a sampler over src. It does not start sampling.
func NewSampler(src Source, opt Options) *Sampler {
	return &Sampler{
		src:    src,
		opt:    opt.withDefaults(),
		m:      newSamplerMetrics(),
		subs:   make(map[chan *Snapshot]struct{}),
		states: make(map[int]*nodeState),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start takes the first sample (a baseline — deltas begin with the second)
// before it returns, so Current is never nil after Start, then launches
// the ticker loop. Idempotent.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		s.SampleOnce()
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.opt.Interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.SampleOnce()
				case <-s.stop:
					return
				}
			}
		}()
	})
}

// Stop halts the ticker loop and waits for it to exit. Safe to call
// without Start (and more than once).
func (s *Sampler) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.startOnce.Do(func() { close(s.done) })
	<-s.done
}

// Current returns the latest snapshot, or nil before the first sample.
func (s *Sampler) Current() *Snapshot { return s.cur.Load() }

// Subscribe registers a listener for future snapshots. The channel drops
// ticks a slow consumer misses (buffer 1, newest-wins semantics are the
// consumer's job via Current). cancel unregisters and closes the channel.
func (s *Sampler) Subscribe() (ch <-chan *Snapshot, cancel func()) {
	c := make(chan *Snapshot, 1)
	s.mu.Lock()
	s.subs[c] = struct{}{}
	s.mu.Unlock()
	var once sync.Once
	return c, func() {
		once.Do(func() {
			s.mu.Lock()
			delete(s.subs, c)
			s.mu.Unlock()
			close(c)
		})
	}
}

// SampleOnce takes one sample, publishes the snapshot, and returns it.
// The ticker loop calls this; tests call it directly for a deterministic
// cadence. Serialized by the sampler's mutex.
func (s *Sampler) SampleOnce() *Snapshot {
	now := time.Now()
	s.mu.Lock()
	cur := s.src.Stats(s.scratch[:0])
	s.scratch = cur
	snap := s.build(now, cur)
	// Retain the cumulative readings for the next delta (a copy: scratch
	// is overwritten by the next tick's Stats). The copy is shallow: each
	// row's HopCounts still aliases scratch, which the next Stats call
	// refills in place. That is safe only because build reads prev's
	// scalars alone and keeps its own bucket baseline in st.prevHop.
	s.prev = append(s.prev[:0], cur...)
	s.prevTime = now
	prevKind := s.lastKind
	s.lastKind = snap.Verdict.Kind
	subs := make([]chan *Snapshot, 0, len(s.subs))
	for c := range s.subs {
		subs = append(subs, c)
	}
	s.mu.Unlock()

	s.cur.Store(snap)
	s.export(snap)
	for _, c := range subs {
		select {
		case c <- snap:
		default: // consumer is behind; it will catch up from Current
		}
	}
	// Capture on the transition into Straggler only: one profile per
	// episode, not one per tick of a long episode.
	if snap.Verdict.Kind == Straggler && prevKind != Straggler && s.opt.AutoProfile > 0 {
		s.maybeProfile()
	}
	return snap
}

// build computes one snapshot from the current cumulative readings. The
// caller holds s.mu.
func (s *Sampler) build(now time.Time, cur []ring.NodeStats) *Snapshot {
	snap := &Snapshot{
		Seq:      s.seq.Add(1),
		Time:     now,
		Slowest:  -1,
		Starved:  -1,
		Captures: s.captures.Load(),
		Verdict:  Verdict{Kind: Healthy, Node: -1, Reason: "warming up"},
	}
	prevByNode := make(map[int]*ring.NodeStats, len(s.prev))
	for i := range s.prev {
		prevByNode[s.prev[i].Node] = &s.prev[i]
	}
	window := now.Sub(s.prevTime)
	first := s.prevTime.IsZero() || window <= 0
	snap.Window = window
	if first {
		snap.Window = 0
	}

	rows := make([]trace.PhaseTotals, 0, len(cur))
	var faultDelta, worstLinkDelta int64
	var worstLink string
	alpha := s.opt.Alpha
	for i := range cur {
		nh := &cur[i]
		st := s.states[nh.Node]
		if st == nil {
			st = &nodeState{
				hop: NewWindowed(nh.HopBounds, s.opt.Windows),
				g:   newNodeGauges(nh.Node),
			}
			s.states[nh.Node] = st
		}
		ns := NodeSample{Node: nh.Node, QueueDepth: nh.QueueDepth}
		// A node's link failures are those of its outbound link.
		var link string
		if nh.LinkFailures > 0 {
			link = fmt.Sprintf("%d→%d", nh.Node, (nh.Node+1)%len(cur))
			snap.Faults = append(snap.Faults, LinkFaults{Link: link, Failures: nh.LinkFailures})
		}
		if prev, ok := prevByNode[nh.Node]; ok && !first {
			if d := nh.LinkFailures - prev.LinkFailures; d > 0 {
				faultDelta += d
				if d > worstLinkDelta {
					worstLink, worstLinkDelta = link, d
				}
			}
			w := float64(window.Nanoseconds())
			dWait := nh.WaitTime - prev.WaitTime
			dJoin := nh.ProcessTime - prev.ProcessTime
			dStage := nh.StageTime - prev.StageTime
			busy := float64(dJoin+dStage) / w
			wait := float64(dWait) / w
			join := float64(dJoin) / w
			stage := float64(dStage) / w
			stall := float64(nh.StallTime-prev.StallTime) / w
			if !st.warm {
				st.ewmaBusy, st.ewmaWait, st.ewmaJoin, st.ewmaStage, st.ewmaStall = busy, wait, join, stage, stall
				st.warm = true
			} else {
				st.ewmaBusy += alpha * (busy - st.ewmaBusy)
				st.ewmaWait += alpha * (wait - st.ewmaWait)
				st.ewmaJoin += alpha * (join - st.ewmaJoin)
				st.ewmaStage += alpha * (stage - st.ewmaStage)
				st.ewmaStall += alpha * (stall - st.ewmaStall)
			}
			ns.Processed = int64(nh.Processed - prev.Processed)
			ns.Materializes = nh.Materializes - prev.Materializes
			ns.FragsPerSec = float64(ns.Processed) / window.Seconds()
			rows = append(rows, trace.PhaseTotals{
				Node:  nh.Node,
				Wait:  dWait,
				Join:  dJoin,
				Stage: dStage,
				Wall:  window,
			})
		}
		ns.BusyShare, ns.WaitShare, ns.StallShare = st.ewmaBusy, st.ewmaWait, st.ewmaStall
		ns.JoinShare, ns.StageShare = st.ewmaJoin, st.ewmaStage

		// Rotate the hop histogram window: delta of cumulative buckets.
		st.deltaHop = st.deltaHop[:0]
		for bi, c := range nh.HopCounts {
			var p int64
			if bi < len(st.prevHop) {
				p = st.prevHop[bi]
			}
			st.deltaHop = append(st.deltaHop, c-p)
		}
		st.prevHop = append(st.prevHop[:0], nh.HopCounts...)
		if !first {
			st.hop.Push(st.deltaHop)
		}
		ns.HopP50Ns = st.hop.Quantile(0.50)
		ns.HopP99Ns = st.hop.Quantile(0.99)
		snap.Nodes = append(snap.Nodes, ns)
	}

	if first || len(rows) == 0 {
		return snap
	}
	attr := trace.Attribute(rows)
	snap.Slowest = attr.SlowestNode
	snap.Starved = attr.MostStarvedNode
	snap.Score = attr.StragglerScore
	snap.Verdict = s.verdict(snap, attr, faultDelta, worstLink)
	return snap
}

// verdict ranks the window's signals, worst first: faults beat a
// straggler beats a credit stall beats healthy. The caller holds s.mu.
func (s *Sampler) verdict(snap *Snapshot, attr trace.Attribution, faults int64, faultLink string) Verdict {
	// Degraded: link failures (not mere delays, which surface as
	// straggling) moved this window; recovery or graceful degradation is
	// in play right now.
	if faults > 0 {
		return Verdict{
			Kind: Degraded, Node: -1, Link: faultLink,
			Reason: fmt.Sprintf("%d link failure(s) this window, worst on %s", faults, faultLink),
		}
	}
	// Straggler: the attribution model's ratio over smoothed floors.
	if attr.SlowestNode >= 0 && attr.StragglerScore >= s.opt.StragglerScore {
		if st := s.states[attr.SlowestNode]; st != nil && st.ewmaBusy >= s.opt.MinBusyShare {
			return Verdict{
				Kind: Straggler, Node: attr.SlowestNode, Score: attr.StragglerScore,
				Reason: fmt.Sprintf("node %d busy %.0f%% of wall, %.1fx the others' mean",
					attr.SlowestNode, st.ewmaBusy*100, attr.StragglerScore),
			}
		}
	}
	// CreditStall: dominant send-side backpressure names the egress link.
	stallNode, stallShare := -1, 0.0
	for id, st := range s.states {
		if st.warm && st.ewmaStall > stallShare {
			stallNode, stallShare = id, st.ewmaStall
		}
	}
	if stallNode >= 0 && stallShare >= s.opt.StallShare {
		to := (stallNode + 1) % len(snap.Nodes)
		return Verdict{
			Kind: CreditStall, Node: stallNode, Score: stallShare,
			Link: fmt.Sprintf("%d→%d", stallNode, to),
			Reason: fmt.Sprintf("node %d stalled %.0f%% of the window waiting on send credits toward node %d",
				stallNode, stallShare*100, to),
		}
	}
	return Verdict{Kind: Healthy, Node: -1, Reason: "ring balanced"}
}

// export refreshes the Prometheus series from a published snapshot.
func (s *Sampler) export(snap *Snapshot) {
	s.m.samples.Inc()
	s.m.verdict.Set(int64(snap.Verdict.Kind))
	s.m.score.Set(int64(snap.Score * 1000))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ns := range snap.Nodes {
		st := s.states[ns.Node]
		if st == nil {
			continue
		}
		st.g.busy.Set(int64(ns.BusyShare * 1000))
		st.g.wait.Set(int64(ns.WaitShare * 1000))
		st.g.stall.Set(int64(ns.StallShare * 1000))
		st.g.hopP50.Set(ns.HopP50Ns)
		st.g.hopP99.Set(ns.HopP99Ns)
	}
}
