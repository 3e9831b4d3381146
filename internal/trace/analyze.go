package trace

import (
	"math"
	"sort"
	"time"
)

// The analyzer turns a flight recording into the paper's Fig 2/3-style
// numbers: where did each host's wall clock go, per phase; how long did a
// fragment's revolution take; which node is the ring's bottleneck and how
// much of the others' time is starvation waiting on it.

// PipelinePhases are the ring-level phases that tile a node's time. Wait,
// join and stage run on the join entity and partition its wall clock;
// receive and send run on their own entities and overlap the pipeline.
var PipelinePhases = []Phase{PhaseReceive, PhaseWait, PhaseJoin, PhaseStage, PhaseSend}

// joinEntityPhase reports whether p runs on the join-entity track (the
// phases whose sum must reconcile with that track's wall clock).
func joinEntityPhase(p Phase) bool {
	return p == PhaseWait || p == PhaseJoin || p == PhaseStage
}

// auxPhases are detail phases reported as aggregate latency stats rather
// than in the per-node wall-clock breakdown: transport work requests and
// the join algorithms' internal phases (which overlap PhaseJoin).
var auxPhases = []Phase{PhaseBuild, PhaseProbe, PhaseSort, PhaseMerge, PhaseWRSend, PhaseWRRecv, PhaseCreditStall, PhaseFault, PhaseRelink}

// NodeBreakdown is one ring position's per-phase cost split.
type NodeBreakdown struct {
	Node int
	// Phases sums span durations per pipeline phase.
	Phases map[Phase]time.Duration
	// Wall is the join-entity track's extent (first wait/join/stage span
	// start to last end).
	Wall time.Duration
	// Busy is join + stage: the time the join entity made progress.
	Busy time.Duration
	// Coverage is (wait+join+stage)/Wall — how completely the recorded
	// spans account for the join entity's wall clock (should be ~1).
	Coverage float64
	// Starvation is wait/(wait+join+stage) — the share of the join
	// entity's time spent starved for data (§V-F "sync" share).
	Starvation float64
}

// PhaseStat aggregates one detail phase's span latencies.
type PhaseStat struct {
	Phase         Phase
	Count         int
	Total         time.Duration
	P50, P99, Max time.Duration
}

// Analysis is the digest cyclotrace prints.
type Analysis struct {
	// Nodes holds per-node breakdowns, sorted by node id.
	Nodes []NodeBreakdown
	// Revolutions holds one latency per completed revolution (first join
	// span of the fragment to its retirement instant), sorted ascending.
	Revolutions []time.Duration
	// Aux aggregates transport and join-internal phases.
	Aux []PhaseStat
	// SlowestNode has the largest Busy time; -1 when no node spans exist.
	SlowestNode int
	// MostStarvedNode has the largest Starvation share; -1 when absent.
	MostStarvedNode int
	// Spans is the number of spans analyzed.
	Spans int
}

// RevolutionP returns the p-th percentile (0 < p <= 100) revolution
// latency by nearest rank, or 0 when none completed.
func (a *Analysis) RevolutionP(p float64) time.Duration {
	return percentile(a.Revolutions, p)
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Analyze digests a span set (Recorder.Snapshot or ReadPerfetto order —
// any order works; spans are sorted internally).
func Analyze(spans []Span) *Analysis {
	a := &Analysis{SlowestNode: -1, MostStarvedNode: -1, Spans: len(spans)}
	if len(spans) == 0 {
		return a
	}
	sorted := append([]Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })

	type nodeAcc struct {
		phases         map[Phase]time.Duration
		wallLo, wallHi int64
		haveWall       bool
	}
	nodes := make(map[int]*nodeAcc)
	acc := func(n int) *nodeAcc {
		na := nodes[n]
		if na == nil {
			na = &nodeAcc{phases: make(map[Phase]time.Duration)}
			nodes[n] = na
		}
		return na
	}
	auxDur := make(map[Phase][]time.Duration)

	// firstJoin tracks, per fragment, the start of its current revolution
	// episode: the earliest PhaseJoin span since the last retirement.
	firstJoin := make(map[int32]int64)
	var revs []time.Duration

	isAux := make(map[Phase]bool, len(auxPhases))
	for _, p := range auxPhases {
		isAux[p] = true
	}

	for _, sp := range sorted {
		switch {
		case isAux[sp.Phase]:
			auxDur[sp.Phase] = append(auxDur[sp.Phase], time.Duration(sp.Dur))
		case sp.Phase == PhaseRetire:
			if sp.Frag >= 0 {
				if start, ok := firstJoin[sp.Frag]; ok {
					revs = append(revs, time.Duration(sp.Start-start))
					delete(firstJoin, sp.Frag)
				}
			}
		case sp.Node >= 0:
			na := acc(int(sp.Node))
			na.phases[sp.Phase] += time.Duration(sp.Dur)
			if joinEntityPhase(sp.Phase) {
				if !na.haveWall || sp.Start < na.wallLo {
					na.wallLo = sp.Start
				}
				if !na.haveWall || sp.End() > na.wallHi {
					na.wallHi = sp.End()
				}
				na.haveWall = true
			}
			if sp.Phase == PhaseJoin && sp.Frag >= 0 {
				if _, ok := firstJoin[sp.Frag]; !ok {
					firstJoin[sp.Frag] = sp.Start
				}
			}
		}
	}

	// Hand the per-node totals to the shared attribution model (the same
	// one internal/health feeds live counter deltas) and graft its derived
	// ratios back onto the span-level breakdown.
	rows := make([]PhaseTotals, 0, len(nodes))
	for id, na := range nodes {
		pt := PhaseTotals{
			Node:    id,
			Receive: na.phases[PhaseReceive],
			Wait:    na.phases[PhaseWait],
			Join:    na.phases[PhaseJoin],
			Stage:   na.phases[PhaseStage],
			Send:    na.phases[PhaseSend],
		}
		if na.haveWall {
			pt.Wall = time.Duration(na.wallHi - na.wallLo)
		}
		rows = append(rows, pt)
	}
	attr := Attribute(rows)
	a.SlowestNode = attr.SlowestNode
	a.MostStarvedNode = attr.MostStarvedNode
	for _, nat := range attr.Nodes {
		a.Nodes = append(a.Nodes, NodeBreakdown{
			Node:       nat.Node,
			Phases:     nodes[nat.Node].phases,
			Wall:       nat.Wall,
			Busy:       nat.Busy,
			Coverage:   nat.Coverage,
			Starvation: nat.Starvation,
		})
	}

	sort.Slice(revs, func(i, j int) bool { return revs[i] < revs[j] })
	a.Revolutions = revs

	for _, p := range auxPhases {
		ds := auxDur[p]
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var total time.Duration
		for _, d := range ds {
			total += d
		}
		a.Aux = append(a.Aux, PhaseStat{
			Phase: p,
			Count: len(ds),
			Total: total,
			P50:   percentile(ds, 50),
			P99:   percentile(ds, 99),
			Max:   ds[len(ds)-1],
		})
	}
	return a
}
