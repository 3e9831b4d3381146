// Package cyclojoin is an open reproduction of "A Spinning Join That Does
// Not Get Dizzy" (Frey, Goncalves, Kersten, Teubner — ICDCS 2010): the
// cyclo-join distributed join strategy on the ring-shaped Data Roundabout
// transport layer.
//
// The package is a facade over the implementation packages:
//
//   - relations and workload generators (internal/relation,
//     internal/workload);
//   - local join algorithms — radix-partitioned hash join, sort-merge
//     join with band-join support, nested loops (internal/join/...);
//   - the RDMA-verbs-shaped transport with in-process and TCP wire
//     implementations plus a kernel-TCP baseline (internal/rdma,
//     internal/kerneltcp);
//   - the Data Roundabout ring runtime (internal/ring) and the cyclo-join
//     orchestrator (internal/core), the only owner of a ring;
//   - the SQL front end (internal/query), whose engine keeps the tables it
//     joins stationed on its ring;
//   - the paper-evaluation harness: calibrated cost model, discrete-event
//     simulator and per-figure experiments (internal/costmodel,
//     internal/simnet, internal/experiments).
//
// Quickstart:
//
//	cluster, err := cyclojoin.NewCluster(cyclojoin.Config{
//		Nodes:     4,
//		Algorithm: cyclojoin.HashJoin(),
//		Predicate: cyclojoin.EquiJoin(),
//	})
//	defer cluster.Close()
//	r, _ := cyclojoin.Generate(cyclojoin.WorkloadSpec{Name: "R", Tuples: 1_000_000})
//	s, _ := cyclojoin.Generate(cyclojoin.WorkloadSpec{Name: "S", Tuples: 1_000_000})
//	result, err := cluster.JoinRelations(r, s, false)
//	fmt.Println(result.Matches(), "matches in", result.JoinTime)
package cyclojoin

import (
	"cyclojoin/internal/core"
	"cyclojoin/internal/costmodel"
	"cyclojoin/internal/experiments"
	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/nested"
	"cyclojoin/internal/join/sortmerge"
	"cyclojoin/internal/query"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
	"cyclojoin/internal/workload"
)

// Core data types.
type (
	// Relation is a columnar in-memory table (uint64 join key plus
	// fixed-width payload per tuple).
	Relation = relation.Relation
	// Schema describes a relation's physical tuple layout.
	Schema = relation.Schema
	// Fragment is one piece of a partitioned relation with its ring
	// metadata.
	Fragment = relation.Fragment
	// WorkloadSpec describes a synthetic relation to generate.
	WorkloadSpec = workload.Spec
)

// Join machinery.
type (
	// Algorithm is a pluggable two-phase local join implementation.
	Algorithm = join.Algorithm
	// Predicate is a join condition on key pairs.
	Predicate = join.Predicate
	// Collector receives join matches; it must be safe for concurrent
	// use.
	Collector = join.Collector
	// Counter counts matches. A revolution whose collectors all only count
	// ships the rotating side's key column, not its payloads.
	Counter = join.Counter
	// Materializer builds the join result as a Relation.
	Materializer = join.Materializer
	// JoinOptions tunes a local algorithm (parallelism, cache target).
	JoinOptions = join.Options
)

// Cluster orchestration.
type (
	// Config describes a cyclo-join cluster.
	Config = core.Config
	// Cluster is a running cyclo-join deployment.
	Cluster = core.Cluster
	// Result reports one distributed join's outcome.
	Result = core.Result
	// RingConfig tunes the Data Roundabout transport.
	RingConfig = ring.Config
	// LinkFactory selects the wire implementation connecting neighboring
	// ring hosts.
	LinkFactory = ring.LinkFactory
)

// SQL front end (§VII's "SQL-enabled system", as a working slice).
type (
	// Catalog maps table names to relations for the SQL engine.
	Catalog = query.Catalog
	// QueryEngine executes SQL join queries as chains of cyclo-join
	// revolutions on one ring, built by the first join and released by
	// Close.
	QueryEngine = query.Engine
	// QueryResult is a SQL query's outcome.
	QueryResult = query.Result
)

// Evaluation harness.
type (
	// Calibration carries the paper-testbed cost parameters.
	Calibration = costmodel.Calibration
	// Experiment is one reproducible table/figure of the paper.
	Experiment = experiments.Experiment
)

// NewCluster builds and starts a cyclo-join cluster.
func NewCluster(cfg Config) (*Cluster, error) { return core.NewCluster(cfg) }

// Generate materializes a synthetic relation.
func Generate(spec WorkloadSpec) (*Relation, error) { return workload.Generate(spec) }

// SequentialRelation builds a relation with keys 0..tuples−1 in order —
// a duplicate-free primary-key column.
func SequentialRelation(name string, tuples, payloadWidth int) *Relation {
	return workload.Sequential(name, tuples, payloadWidth)
}

// Partition splits a relation into n fragments in input order.
func Partition(r *Relation, n int) ([]*Fragment, error) { return relation.Partition(r, n) }

// HashJoin returns the radix-partitioned hash join of [22] (equi-joins).
func HashJoin() Algorithm { return hashjoin.Join{} }

// SortMergeJoin returns the sort-merge join (equi- and band joins).
func SortMergeJoin() Algorithm { return sortmerge.Join{} }

// NestedLoopsJoin returns the block nested-loops fallback (any predicate).
func NestedLoopsJoin() Algorithm { return nested.Join{} }

// EquiJoin returns the equality predicate.
func EquiJoin() Predicate { return join.Equi{} }

// BandJoin returns the predicate |rKey − sKey| ≤ width.
func BandJoin(width uint64) Predicate { return join.Band{Width: width} }

// ThetaJoin wraps an arbitrary key predicate (nested loops only).
func ThetaJoin(name string, fn func(rKey, sKey uint64) bool) Predicate {
	return join.Theta{Name: name, Fn: fn}
}

// NewCounter returns a match-counting collector.
func NewCounter() *Counter { return &join.Counter{} }

// NewMaterializer returns a collector that builds the join result as a
// relation keyed on the rotating side's key.
func NewMaterializer(name string, rPayWidth, sPayWidth int) *Materializer {
	return join.NewMaterializer(name, rPayWidth, sPayWidth)
}

// NewRekeyedMaterializer returns a materializing collector keyed on the
// stationary side's key — the layout a follow-up cyclo-join consumes when
// composing ternary joins.
func NewRekeyedMaterializer(name string, rPayWidth, sPayWidth int) *Materializer {
	return join.NewRekeyedMaterializer(name, rPayWidth, sPayWidth)
}

// InProcessLinks connects ring hosts with the in-process zero-copy
// transport (the default).
func InProcessLinks() LinkFactory { return ring.MemLinks() }

// TCPLoopbackLinks connects ring hosts over real TCP sockets on the
// loopback interface.
func TCPLoopbackLinks() LinkFactory { return ring.TCPLinks() }

// NewCatalog returns an empty SQL catalog.
func NewCatalog() *Catalog { return query.NewCatalog() }

// NewQueryEngine builds a SQL engine that runs every join on a cyclo-join
// ring of the given size. The engine builds the ring on its first join and
// keeps it for later queries: Close it when done, or the ring's registered
// buffers and parked goroutines stay pinned.
func NewQueryEngine(catalog *Catalog, nodes int, opts JoinOptions) (*QueryEngine, error) {
	return query.NewEngine(catalog, nodes, opts)
}

// DefaultCalibration returns the paper-testbed calibration (quad-core
// 2.33 GHz Xeons, 4 MB L2, 10 Gb/s iWARP).
func DefaultCalibration() Calibration { return costmodel.Default() }

// Experiments returns the paper's evaluation harness, one entry per table
// and figure.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds one experiment ("fig7", "table1", ...).
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }
