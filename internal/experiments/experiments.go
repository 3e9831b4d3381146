// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each experiment returns both typed rows (asserted by the
// test suite) and a printable table (rendered by cmd/cyclobench and
// recorded in EXPERIMENTS.md).
//
// The experiments run the calibrated cost model (package costmodel) through
// the discrete-event ring simulator (package simnet) at the paper's full
// data scale; correctness of the underlying algorithms and transport is
// established separately by the real executions in the package tests and
// examples. See DESIGN.md §2 for the substitution rationale.
package experiments

import (
	"fmt"
	"math"
	"time"

	"cyclojoin/internal/costmodel"
	"cyclojoin/internal/simnet"
	"cyclojoin/internal/stats"
)

// Workload constants of the evaluation section.
const (
	// Fig7Tuples is the per-relation cardinality of the fixed-data-set
	// experiments (140 M 12-byte tuples = 1.6 GB per relation, §V-B).
	Fig7Tuples = 140_000_000
	// Fig8TuplesPerNode: the scale-up experiments add one 1.6 GB fragment
	// of each relation per node (3.2 GB per node, §V-C).
	Fig8TuplesPerNode = 140_000_000
	// Fig9Tuples is the skew experiment's per-relation cardinality
	// (36 M 12-byte tuples = 412 MB, §V-D).
	Fig9Tuples = 36_000_000
	// Fig12Tuples is the transport comparison's per-relation cardinality
	// (160 M tuples, §V-G).
	Fig12Tuples = 160_000_000
	// Fig12BytesEachWay is the per-relation data volume of §V-G
	// (2 × 6.7 GB): the volume each host receives (and forwards) during
	// one revolution.
	Fig12BytesEachWay = 6.7e9
	// MaxNodes is the testbed's ring size ("the maximum number of
	// RDMA-equipped machines we currently have available").
	MaxNodes = 6
	// JoinThreads is the per-host join parallelism (all four cores).
	JoinThreads = 4
	// fragmentBytes is the ring-buffer element size used for the
	// simulated revolutions; comfortably above the Fig 5 saturation
	// point.
	fragmentBytes = 16 << 20
)

// Experiment couples an identifier with its harness.
type Experiment struct {
	// ID is the lowercase identifier ("fig7", "table1").
	ID string
	// Title describes the experiment.
	Title string
	// Run executes the harness under the given calibration.
	Run func(cal costmodel.Calibration) (*stats.Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig3", Title: "Fig 3: CPU overhead of network transports", Run: Fig3Table},
		{ID: "fig5", Title: "Fig 5: RDMA throughput vs transfer-unit size", Run: Fig5Table},
		{ID: "fig7", Title: "Fig 7: hash join, fixed 3.2 GB data set, 1-6 nodes", Run: Fig7Table},
		{ID: "fig8", Title: "Fig 8: hash join scale-up, +3.2 GB per node", Run: Fig8Table},
		{ID: "fig9", Title: "Fig 9: join phase under Zipf skew, local vs cyclo-join", Run: Fig9Table},
		{ID: "fig10", Title: "Fig 10: sort-merge join, fixed data set, 1-6 nodes", Run: Fig10Table},
		{ID: "fig11", Title: "Fig 11: sort-merge join scale-up with sync time", Run: Fig11Table},
		{ID: "fig12", Title: "Fig 12: hash join phase, RDMA vs kernel TCP, 1-4 threads", Run: Fig12Table},
		{ID: "table1", Title: "Table I: CPU load during the hash join phase", Run: Table1},
		{ID: "crossover", Title: "§V-E prediction: hash vs sort-merge crossover beyond the testbed", Run: CrossoverTable},
		{ID: "footnote1", Title: "§II-C footnote: distributed memory vs local disk", Run: FootnoteTable},
		{ID: "regcost", Title: "§III-C: registration cost amortization via the static buffer pool", Run: RegCostTable},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// ScaleRow is one bar of the Fig 7/8/10/11 family.
type ScaleRow struct {
	// Nodes is the ring size.
	Nodes int
	// DataBytes is the total data volume (both relations).
	DataBytes int64
	// Setup is the setup-phase wall clock (hash build or sort).
	Setup time.Duration
	// Join is the join entities' average compute time — the paper's
	// white "join" bar.
	Join time.Duration
	// Sync is the join entities' average wait for the transport — the
	// paper's light-gray "sync" share (§V-F).
	Sync time.Duration
	// Wall is the simulated join-phase wall clock (≥ Join + Sync; the
	// difference is end-of-revolution drain).
	Wall time.Duration
}

// Total is the experiment's full wall clock: setup plus the revolution.
func (r ScaleRow) Total() time.Duration { return r.Setup + r.Wall }

// revolution is a simulated join phase broken into the paper's components.
type revolution struct {
	join, sync, wall time.Duration
}

// simulateRevolution runs one join-phase revolution through the DES:
// rTuples total rotating tuples, perTupleCore per-tuple single-core cost.
func simulateRevolution(cal costmodel.Calibration, nodes, rTuples int, perTupleCore time.Duration) (revolution, error) {
	perHost := rTuples / nodes
	chunkTuples := fragmentBytes / cal.TupleBytes
	fragsPerHost := (perHost + chunkTuples - 1) / chunkTuples
	if fragsPerHost < 1 {
		fragsPerHost = 1
	}
	tuplesPerFrag := perHost / fragsPerHost
	if tuplesPerFrag < 1 {
		tuplesPerFrag = 1
	}
	work := time.Duration(float64(tuplesPerFrag) * float64(perTupleCore) / JoinThreads)
	res, err := simnet.Run(simnet.Config{
		Hosts:            nodes,
		Slots:            8,
		Bandwidth:        cal.EffectiveBandwidth(),
		TransferOverhead: cal.WRPostOverhead,
		FragsPerHost:     fragsPerHost,
		FragBytes:        func(f int) int { return tuplesPerFrag * cal.TupleBytes },
		Work:             func(f, h int) time.Duration { return work },
		ReturnHome:       true,
	})
	if err != nil {
		return revolution{}, err
	}
	// The "join" bar is the hosts' average compute time; "sync" is the
	// time the join entities measurably starved on the transport.
	var busy time.Duration
	for _, h := range res.Hosts {
		busy += h.Busy
	}
	return revolution{
		join: busy / time.Duration(len(res.Hosts)),
		sync: res.AvgWait(),
		wall: res.Wall,
	}, nil
}

// scaleTable renders the Fig 7/8/10/11 family.
func scaleTable(title string, rows []ScaleRow, note string) *stats.Table {
	t := stats.NewTable(title, "nodes", "data [GB]", "setup [s]", "join [s]", "sync [s]", "total [s]")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Nodes),
			stats.GB(r.DataBytes),
			stats.Secs(r.Setup),
			stats.Secs(r.Join),
			stats.Secs(r.Sync),
			stats.Secs(r.Total()),
		)
	}
	if note != "" {
		t.SetNote(note)
	}
	return t
}

// almostEqual helps the harness self-checks.
func almostEqual(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b)/den <= relTol
}
