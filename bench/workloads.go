package main

import (
	"fmt"
	"time"

	"cyclojoin/internal/core"
	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/sortmerge"
	"cyclojoin/internal/query"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
	"cyclojoin/internal/workload"
)

// nodes is the ring size of every workload. Everything else about the product
// is left at its defaults: join.Options{} (one worker per host), default ring
// buffers, default GOGC and GOMAXPROCS.
const nodes = 4

const sql3way = "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k"

// opKind is what one measured operation calls.
type opKind int

const (
	opJoinRelations opKind = iota // Cluster.JoinRelations: partition + Station + Rotate
	opRotate                      // Cluster.Rotate against state stationed during set-up
	opSQL                         // query.Engine.Execute of sql3way
)

// workloadDef fixes one workload's inputs and the product path it drives.
// The names are cited by later issues; do not rename them.
type workloadDef struct {
	name string
	// why is the reason the workload exists, repeated in BENCHMARK.json.
	why  string
	kind opKind
	// rels names the generated relations: the first rotates, the second is
	// stationed (for opSQL they are the FROM-clause tables in join order).
	rels []string
	// tuples and domain are per relation; payload is the tuple's payload
	// width in bytes (tuple width = 8 + payload).
	tuples, domain, payload int
	alg                     join.Algorithm
	pred                    join.Predicate
	// tcp selects tcplink loopback links instead of memlink.
	tcp bool
	// fragsPerHost is how many rotating fragments each host injects.
	fragsPerHost int
	// shardCap sizes the flight recorder's per-producer span rings for the
	// traced window: the longest-lived shard's spans per op times the ops a
	// traced window can hold (see traceOpCap). Kernels take fresh shards at
	// every Station, so a workload that stations per op keeps it small.
	shardCap int
}

var workloads = []workloadDef{
	{
		name: "hash_mem", kind: opJoinRelations,
		why:  "kernel-bound hash equi-join of 2x1M narrow tuples on memlink: probe dominates, the wire is under 1%, so a transport change must show nothing",
		rels: []string{"R", "S"}, tuples: 1_000_000, domain: 1_000_000, payload: 4,
		alg: hashjoin.Join{}, pred: join.Equi{}, fragsPerHost: 1, shardCap: 2048,
	},
	{
		name: "sortmerge_band", kind: opJoinRelations,
		why:  "the other kernel with the opposite split: a sort-merge band join of 2x400k tuples whose Station (sort) dominates, so a hash-join change must show nothing",
		rels: []string{"R", "S"}, tuples: 400_000, domain: 1_600_000, payload: 4,
		alg: sortmerge.Join{}, pred: join.Band{Width: 2}, fragsPerHost: 1, shardCap: 2048,
	},
	{
		name: "rotate_wide_tcp", kind: opRotate,
		why:  "wire-bound: Rotate only, 256 B tuples in 16 fragments of 3.2 MB over tcplink loopback, Station paid once in set-up, so transport, ring and codec are half the time",
		rels: []string{"R", "S"}, tuples: 200_000, domain: 200_000, payload: 248,
		alg: hashjoin.Join{}, pred: join.Equi{}, tcp: true, fragsPerHost: 4, shardCap: 16384,
	},
	{
		name: "sql_3way", kind: opSQL,
		why:  "the query path: a three-way SQL join that builds and tears down two rings per op and materialises the intermediate, where the one-engine refactor must show",
		rels: []string{"a", "b", "c"}, tuples: 200_000, domain: 200_000, payload: 4,
		alg: hashjoin.Join{}, pred: join.Equi{}, fragsPerHost: 1, shardCap: 256,
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// traceOpCap bounds the ops of a traced window so that no span is dropped:
// the busiest shard (a node's join entity) records wait, join and stage for
// each of the nodes*fragsPerHost fragments, plus a retire point for its own.
// Zero means no bound: the SQL engine's rings, and their shards, live for one
// op only.
func (w *workloadDef) traceOpCap() int {
	if w.kind == opSQL {
		return 0
	}
	return w.shardCap / (4 * nodes * w.fragsPerHost)
}

func (w *workloadDef) links() ring.LinkFactory {
	if w.tcp {
		return ring.TCPLinks()
	}
	return ring.MemLinks()
}

func (w *workloadDef) transport() string {
	if w.tcp {
		return "tcplink"
	}
	return "memlink"
}

func (w *workloadDef) clusterConfig() core.Config {
	return core.Config{Nodes: nodes, Algorithm: w.alg, Predicate: w.pred, Links: w.links()}
}

// inputs are one seed's generated relations and the oracle's answer.
type inputs struct {
	rels []*relation.Relation
	// want is the match count every op must report.
	want int64
	// tuplesPerOp is the input volume one op consumes.
	tuplesPerOp int
}

// generate builds the workload's relations from the seed (relation i uses
// seed+i) and computes the reference match count. scale divides the sizes;
// the benchmark proper runs at scale 1, the smoke test at 50.
func (w *workloadDef) generate(seed int64, scale int) (*inputs, error) {
	in := &inputs{}
	domain := w.domain / scale
	for i, name := range w.rels {
		rel, err := workload.Generate(workload.Spec{
			Name: name, Tuples: w.tuples / scale, PayloadWidth: w.payload,
			KeyDomain: domain, Seed: seed + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		in.rels = append(in.rels, rel)
		in.tuplesPerOp += rel.Len()
	}
	if band, ok := w.pred.(join.Band); ok {
		in.want = bandMatches(in.rels[0], in.rels[1], band.Width)
	} else {
		in.want = equiMatches(domain, in.rels...)
	}
	if w.kind == opRotate {
		// Station consumed S during set-up; an op moves and probes R only.
		in.tuplesPerOp = in.rels[0].Len()
	}
	return in, nil
}

// rotating splits r into the per-host rotating fragments, in the layout
// JoinRelations uses when fragsPerHost is 1.
func (w *workloadDef) rotating(r *relation.Relation) ([][]*relation.Fragment, error) {
	parts, err := relation.Partition(r, nodes*w.fragsPerHost)
	if err != nil {
		return nil, err
	}
	perHost := make([][]*relation.Fragment, nodes)
	for i := range perHost {
		perHost[i] = parts[i*w.fragsPerHost : (i+1)*w.fragsPerHost]
	}
	return perHost, nil
}

// opResult is what one op reported.
type opResult struct {
	matches int64
	// station and rotate are core.Result's setup/join split for the work
	// done inside the op; zero where the product does not expose it.
	station, rotate time.Duration
}

// instance is a workload that has been set up and is ready to run ops.
type instance struct {
	// op runs one operation. With a nil log it makes the single product call
	// the workload is named after; with a log it makes the same calls step
	// by step, each under a bench span.
	op    func(log *spanLog) (opResult, error)
	close func() error
}

// build sets the workload up on the given inputs: everything between input
// generation and the first op.
func (w *workloadDef) build(in *inputs) (*instance, error) {
	if w.kind == opSQL {
		return w.buildSQL(in)
	}
	c, err := core.NewCluster(w.clusterConfig())
	if err != nil {
		return nil, err
	}
	r, s := in.rels[0], in.rels[1]
	inst := &instance{close: c.Close}
	var sFrags []*relation.Fragment
	var rFrags [][]*relation.Fragment
	partition := func() (err error) {
		if sFrags, err = relation.Partition(s, nodes); err != nil {
			return err
		}
		rFrags, err = w.rotating(r)
		return err
	}
	station := func() error { return c.Station(sFrags, rFrags) }
	rotate := func(log *spanLog) (opResult, error) {
		var res *core.Result
		err := log.time("bench.rotate", func() (err error) {
			res, err = c.Rotate()
			return err
		})
		if err != nil {
			return opResult{}, err
		}
		return opResult{matches: res.Matches(), rotate: res.JoinTime}, nil
	}
	switch w.kind {
	case opRotate:
		if err := partition(); err == nil {
			err = station()
		}
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		inst.op = rotate
	case opJoinRelations:
		inst.op = func(log *spanLog) (opResult, error) {
			if log == nil {
				res, err := c.JoinRelations(r, s, false)
				if err != nil {
					return opResult{}, err
				}
				return opResult{matches: res.Matches(), station: res.SetupTime, rotate: res.JoinTime}, nil
			}
			// JoinRelations, taken apart so each step gets its own span.
			if err := log.time("bench.partition", partition); err != nil {
				return opResult{}, err
			}
			if err := log.time("bench.station", station); err != nil {
				return opResult{}, err
			}
			return rotate(log)
		}
	}
	return inst, nil
}

func (w *workloadDef) buildSQL(in *inputs) (*instance, error) {
	cat := query.NewCatalog()
	for i, name := range w.rels {
		if err := cat.Register(name, "k", in.rels[i]); err != nil {
			return nil, err
		}
	}
	eng, err := query.NewEngine(cat, nodes, join.Options{})
	if err != nil {
		return nil, err
	}
	return &instance{
		close: func() error { return nil },
		op: func(log *spanLog) (opResult, error) {
			if log != nil {
				// Execute parses again; this call only sizes the parse.
				if err := log.time("bench.parse", func() error {
					_, err := query.Parse(sql3way)
					return err
				}); err != nil {
					return opResult{}, err
				}
			}
			var res *query.Result
			err := log.time("bench.execute", func() (err error) {
				res, err = eng.Execute(sql3way)
				return err
			})
			if err != nil {
				return opResult{}, err
			}
			return opResult{matches: res.Count}, nil
		},
	}, nil
}
