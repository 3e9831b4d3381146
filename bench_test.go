// Benchmarks regenerating the paper's evaluation (one benchmark per table
// and figure, §V), plus the ablations called out in DESIGN.md §6 and
// micro-benchmarks of the real implementation underneath.
//
// The Fig/Table benchmarks execute the calibrated model + discrete-event
// simulation at the paper's data scale and report the headline quantity of
// the corresponding figure as a custom metric (seconds of simulated time,
// speedup factors, CPU load), so `go test -bench .` prints the
// reproduction next to the benchmark name. The paper-vs-ours comparison is
// recorded in EXPERIMENTS.md.
package cyclojoin_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"cyclojoin"
	"cyclojoin/internal/core"
	"cyclojoin/internal/costmodel"
	"cyclojoin/internal/experiments"
	"cyclojoin/internal/join"
	"cyclojoin/internal/join/hashjoin"
	"cyclojoin/internal/join/nested"
	"cyclojoin/internal/join/sortmerge"
	"cyclojoin/internal/kerneltcp"
	"cyclojoin/internal/metrics"
	"cyclojoin/internal/rdma"
	"cyclojoin/internal/rdma/memlink"
	"cyclojoin/internal/rdma/tcplink"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/ring"
	"cyclojoin/internal/simnet"
	"cyclojoin/internal/workload"
)

// ---- paper tables and figures ----

// BenchmarkFig03CPUOverhead regenerates the Fig 3 transport overhead
// decomposition.
func BenchmarkFig03CPUOverhead(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3Rows()
		total = rows[2].Total()
	}
	b.ReportMetric(total*100, "rdma-residual-%")
}

// BenchmarkFig05ChunkSize regenerates the Fig 5 throughput sweep and
// reports the chunk size's share of the link at 4 kB (the paper's
// saturation knee).
func BenchmarkFig05ChunkSize(b *testing.B) {
	cal := costmodel.Default()
	var at4k float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5Rows(cal)
		for _, r := range rows {
			if r.ChunkBytes == 4<<10 {
				at4k = r.Throughput / cal.EffectiveBandwidth()
			}
		}
	}
	b.ReportMetric(at4k*100, "linkshare-4kB-%")
}

// BenchmarkFig07FixedData regenerates Fig 7 and reports the six-node setup
// time (paper: 2.7 s, down from 16.2 s).
func BenchmarkFig07FixedData(b *testing.B) {
	cal := costmodel.Default()
	var rows []experiments.ScaleRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig7Rows(cal)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[5].Setup.Seconds(), "setup6-s")
	b.ReportMetric(rows[5].Join.Seconds(), "join6-s")
}

// BenchmarkFig08ScaleUp regenerates Fig 8 and reports the 19.2 GB join
// phase (paper: 16.2 s).
func BenchmarkFig08ScaleUp(b *testing.B) {
	cal := costmodel.Default()
	var rows []experiments.ScaleRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig8Rows(cal)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[5].Join.Seconds(), "join19GB-s")
}

// BenchmarkFig09Skew regenerates Fig 9 and reports the z=0.9 cyclo-join
// advantage (paper: ≈5×).
func BenchmarkFig09Skew(b *testing.B) {
	cal := costmodel.Default()
	var adv float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9Rows(cal)
		adv = rows[len(rows)-1].Advantage()
	}
	b.ReportMetric(adv, "advantage-z0.9-x")
}

// BenchmarkFig10SortMergeFixed regenerates Fig 10 and reports the
// single-host sort setup (the figure's dominating bar).
func BenchmarkFig10SortMergeFixed(b *testing.B) {
	cal := costmodel.Default()
	var rows []experiments.ScaleRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig10Rows(cal)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Setup.Seconds(), "sort1-s")
	b.ReportMetric(rows[5].Setup.Seconds(), "sort6-s")
}

// BenchmarkFig11SortMergeScaleUp regenerates Fig 11 and reports the
// six-node merge and sync times (paper: 6.4 s + 2.3 s).
func BenchmarkFig11SortMergeScaleUp(b *testing.B) {
	cal := costmodel.Default()
	var rows []experiments.ScaleRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig11Rows(cal)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[5].Join.Seconds(), "join6-s")
	b.ReportMetric(rows[5].Sync.Seconds(), "sync6-s")
}

// BenchmarkFig12RDMAvsTCP regenerates Fig 12 and reports the 4-thread
// TCP/RDMA wall-clock ratio (the paper's largest gap).
func BenchmarkFig12RDMAvsTCP(b *testing.B) {
	cal := costmodel.Default()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12Rows(cal)
		ratio = rows[3].TCP.Wall().Seconds() / rows[3].RDMA.Wall().Seconds()
	}
	b.ReportMetric(ratio, "tcp/rdma-4t-x")
}

// BenchmarkTable1CPULoad regenerates Table I and reports the 4-thread
// loads (paper: TCP 86 %, RDMA 100 %).
func BenchmarkTable1CPULoad(b *testing.B) {
	cal := costmodel.Default()
	var tcp, rdma float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12Rows(cal)
		tcp, rdma = rows[3].TCP.CPULoad, rows[3].RDMA.CPULoad
	}
	b.ReportMetric(tcp*100, "tcp4t-%")
	b.ReportMetric(rdma*100, "rdma4t-%")
}

// ---- ablations (DESIGN.md §6) ----

// BenchmarkAblationRingDepth sweeps the per-host ring-buffer depth under a
// skewed per-fragment load and reports the simulated revolution time —
// the slack that §V-D credits for skew balancing.
func BenchmarkAblationRingDepth(b *testing.B) {
	for _, slots := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				res, err := simnet.Run(simnet.Config{
					Hosts:        6,
					Slots:        slots,
					Bandwidth:    1.1e9,
					FragsPerHost: 8,
					FragBytes:    func(f int) int { return 16 << 20 },
					Work: func(f, h int) time.Duration {
						if f%11 == 0 {
							return 200 * time.Millisecond // hot fragment
						}
						return 15 * time.Millisecond
					},
					ReturnHome: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				wall = res.Wall
			}
			b.ReportMetric(wall.Seconds(), "simwall-s")
		})
	}
}

// BenchmarkAblationRotateSmaller measures a real distributed join rotating
// the smaller versus the larger relation (§IV-B's guidance).
func BenchmarkAblationRotateSmaller(b *testing.B) {
	big, err := workload.Generate(workload.Spec{Name: "BIG", Tuples: 400_000, KeyDomain: 100_000, Seed: 1, PayloadWidth: 4})
	if err != nil {
		b.Fatal(err)
	}
	small, err := workload.Generate(workload.Spec{Name: "SMALL", Tuples: 50_000, KeyDomain: 100_000, Seed: 2, PayloadWidth: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, rotateSmaller := range []bool{false, true} {
		b.Run(fmt.Sprintf("rotateSmaller=%v", rotateSmaller), func(b *testing.B) {
			cluster, err := core.NewCluster(core.Config{
				Nodes:     3,
				Algorithm: hashjoin.Join{},
				Predicate: join.Equi{},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				_ = cluster.Close()
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// R=big rotates unless the swap is enabled.
				if _, err := cluster.JoinRelations(big, small, rotateSmaller); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSetupReuse compares re-running Station before every
// revolution against reusing the stationed state (§IV-D's amortization).
func BenchmarkAblationSetupReuse(b *testing.B) {
	r, err := workload.Generate(workload.Spec{Name: "R", Tuples: 200_000, KeyDomain: 100_000, Seed: 3, PayloadWidth: 4})
	if err != nil {
		b.Fatal(err)
	}
	s, err := workload.Generate(workload.Spec{Name: "S", Tuples: 200_000, KeyDomain: 100_000, Seed: 4, PayloadWidth: 4})
	if err != nil {
		b.Fatal(err)
	}
	newCluster := func() *core.Cluster {
		cluster, err := core.NewCluster(core.Config{
			Nodes:     3,
			Algorithm: sortmerge.Join{},
			Predicate: join.Equi{},
		})
		if err != nil {
			b.Fatal(err)
		}
		return cluster
	}
	b.Run("stationEveryTime", func(b *testing.B) {
		cluster := newCluster()
		defer func() {
			_ = cluster.Close()
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.JoinRelations(r, s, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reuseSetup", func(b *testing.B) {
		cluster := newCluster()
		defer func() {
			_ = cluster.Close()
		}()
		if _, err := cluster.JoinRelations(r, s, false); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.Rotate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationFragmentSize sweeps the ring-buffer element size and
// reports the simulated revolution time — small fragments drown in per-WR
// overhead (Fig 5's lesson applied to the ring).
func BenchmarkAblationFragmentSize(b *testing.B) {
	cal := costmodel.Default()
	const perHostBytes = 1 << 30 // 1 GB of rotating data per host
	for _, frag := range []int{64 << 10, 1 << 20, 16 << 20, 128 << 20} {
		b.Run(byteLabel(frag), func(b *testing.B) {
			frags := perHostBytes / frag
			work := time.Duration(float64(frag/cal.TupleBytes) * float64(cal.HashProbePerTupleCore) / 4)
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				res, err := simnet.Run(simnet.Config{
					Hosts:            6,
					Slots:            8,
					Bandwidth:        cal.EffectiveBandwidth(),
					TransferOverhead: 40 * time.Microsecond, // WR post + doorbell + completion per element
					FragsPerHost:     frags,
					FragBytes:        func(f int) int { return frag },
					Work:             func(f, h int) time.Duration { return work },
					ReturnHome:       true,
				})
				if err != nil {
					b.Fatal(err)
				}
				wall = res.Wall
			}
			b.ReportMetric(wall.Seconds(), "simwall-s")
		})
	}
}

// BenchmarkAblationRotatingOrder is §IV-D's "invest once, reuse on every
// hop" in situ: a 4-node cluster stations once and the timed loop is whole
// revolutions, with the rotating fragments ordered by SetupRotating and left
// as they lie. station-ms is the one-off price of each.
func BenchmarkAblationRotatingOrder(b *testing.B) {
	const nodes = 4
	r, s := benchRelations(b, 1_000_000)
	rFrags, err := relation.Partition(r, nodes)
	if err != nil {
		b.Fatal(err)
	}
	sFrags, err := relation.Partition(s, nodes)
	if err != nil {
		b.Fatal(err)
	}
	perHost := make([][]*relation.Fragment, nodes)
	for i, f := range rFrags {
		perHost[i] = []*relation.Fragment{f}
	}
	for _, skip := range []bool{false, true} {
		name := "ordered"
		if skip {
			name = "asItLies"
		}
		b.Run(name, func(b *testing.B) {
			c, err := core.NewCluster(core.Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}, SkipRotatingSetup: skip})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				_ = c.Close()
			}()
			start := time.Now()
			if err := c.Station(sFrags, perHost); err != nil {
				b.Fatal(err)
			}
			station := time.Since(start)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Rotate(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(station.Microseconds())/1e3, "station-ms")
		})
	}
}

// ---- micro-benchmarks of the real implementation ----

func benchRelations(b *testing.B, tuples int) (*relation.Relation, *relation.Relation) {
	b.Helper()
	r, err := workload.Generate(workload.Spec{Name: "R", Tuples: tuples, KeyDomain: tuples, Seed: 7, PayloadWidth: 4})
	if err != nil {
		b.Fatal(err)
	}
	s, err := workload.Generate(workload.Spec{Name: "S", Tuples: tuples, KeyDomain: tuples, Seed: 8, PayloadWidth: 4})
	if err != nil {
		b.Fatal(err)
	}
	return r, s
}

func BenchmarkHashJoinSetup(b *testing.B) {
	_, s := benchRelations(b, 1_000_000)
	b.SetBytes(int64(s.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (hashjoin.Join{}).SetupStationary(s, join.Equi{}, join.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoinProbe(b *testing.B) {
	r, s := benchRelations(b, 1_000_000)
	st, err := (hashjoin.Join{}).SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(r.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Join(r, join.Discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

// emitOnly is a collector that is not a join.MatchCounter, so a kernel hands
// it every match, in the join.Blocks a collector receives.
type emitOnly struct{}

func (emitOnly) Emit(rKey, sKey uint64, rPay, sPay []byte) {}

func (emitOnly) EmitBlock(join.Block) {}

// BenchmarkHashJoinProbeOrdered is the probe as a ring host runs it: one
// host's share of S (hash_mem's 250 k, rotate_wide_tcp's 50 k) against a
// rotating fragment that went through SetupRotating, counted, counted key
// by key as a probe chain that only counts asks for them (each), and
// emitted.
func BenchmarkHashJoinProbeOrdered(b *testing.B) {
	for _, size := range []struct {
		name   string
		tuples int
	}{{"50k", 50_000}, {"250k", 250_000}} {
		r, s := benchRelations(b, size.tuples)
		st, err := (hashjoin.Join{}).SetupStationary(s, join.Equi{}, join.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rot, err := (hashjoin.Join{}).SetupRotating(r, join.Equi{}, join.Options{})
		if err != nil {
			b.Fatal(err)
		}
		counts := make([]uint32, rot.Len())
		for _, path := range []struct {
			name string
			run  func() error
		}{
			{"count", func() error { return st.Join(rot, join.Discard{}) }},
			{"each", func() error { return st.CountEach(rot.Keys(), counts) }},
			{"emit", func() error { return st.Join(rot, emitOnly{}) }},
		} {
			b.Run(size.name+"/"+path.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := path.run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rot.Len()), "ns/probe")
			})
		}
	}
}

// BenchmarkHashJoinSetupRotating is the price of a rotating fragment's order,
// paid once at Station: hash_mem's fragment.
func BenchmarkHashJoinSetupRotating(b *testing.B) {
	r, _ := benchRelations(b, 250_000)
	b.SetBytes(int64(r.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (hashjoin.Join{}).SetupRotating(r, join.Equi{}, join.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoinStationEmit is what the emit path pays from nothing for
// one host share (hash_mem's 250 k): S stationed, a fragment of R ordered
// whole, and one emitting Join, which places S's payloads first.
func BenchmarkHashJoinStationEmit(b *testing.B) {
	r, s := benchRelations(b, 250_000)
	b.SetBytes(int64(r.Bytes() + s.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := (hashjoin.Join{}).SetupStationary(s, join.Equi{}, join.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rot, err := (hashjoin.Join{}).SetupRotating(r, join.Equi{}, join.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Join(rot, emitOnly{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoinProbeZipf is the probe's skew guard: S is Zipf-distributed,
// so its buckets get long; R stays uniform, so the match count does not go
// quadratic and ns/probe stays comparable across z.
func BenchmarkHashJoinProbeZipf(b *testing.B) {
	const tuples = 250_000
	r, err := workload.Generate(workload.Spec{Name: "R", Tuples: tuples, KeyDomain: tuples, Seed: 7, PayloadWidth: 4})
	if err != nil {
		b.Fatal(err)
	}
	rot, err := (hashjoin.Join{}).SetupRotating(r, join.Equi{}, join.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, z := range []float64{0, 0.5, 0.9, 1.2} {
		b.Run(fmt.Sprintf("z=%g", z), func(b *testing.B) {
			s, err := workload.Generate(workload.Spec{Name: "S", Tuples: tuples, KeyDomain: tuples, Zipf: z, Seed: 8, PayloadWidth: 4})
			if err != nil {
				b.Fatal(err)
			}
			st, err := (hashjoin.Join{}).SetupStationary(s, join.Equi{}, join.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Join(rot, join.Discard{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rot.Len()), "ns/probe")
		})
	}
}

func BenchmarkSortMergeSetup(b *testing.B) {
	r, _ := benchRelations(b, 1_000_000)
	b.SetBytes(int64(r.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (sortmerge.Join{}).SetupRotating(r, join.Equi{}, join.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortMergeJoinPhase(b *testing.B) {
	r, s := benchRelations(b, 1_000_000)
	st, err := (sortmerge.Join{}).SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sorted, err := (sortmerge.Join{}).SetupRotating(r, join.Equi{}, join.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(r.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Join(sorted, join.Discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortMergeHost is the merge as a ring host of bench's
// sortmerge_band runs it: one host's share of S (100 k tuples of a 1.6 M key
// domain) against a rotating fragment of the same size that went through
// SetupRotating, band ±2, counted and emitted; the same count under a band
// of ±1000, whose candidates span many buckets (count_wide); and the Station
// that prepares that share.
func BenchmarkSortMergeHost(b *testing.B) {
	const tuples, domain = 100_000, 1_600_000
	gen := func(name string, seed int64) *relation.Relation {
		rel, err := workload.Generate(workload.Spec{Name: name, Tuples: tuples, KeyDomain: domain, Seed: seed, PayloadWidth: 4})
		if err != nil {
			b.Fatal(err)
		}
		return rel
	}
	r, s := gen("R", 7), gen("S", 8)
	pred := join.Band{Width: 2}
	b.Run("setupStationary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (sortmerge.Join{}).SetupStationary(s, pred, join.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Len()), "ns/tuple")
	})
	st, err := (sortmerge.Join{}).SetupStationary(s, pred, join.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rot, err := (sortmerge.Join{}).SetupRotating(r, pred, join.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, path := range []struct {
		name string
		c    join.Collector
	}{{"count", join.Discard{}}, {"emit", emitOnly{}}} {
		b.Run(path.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := st.Join(rot, path.c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rot.Len()), "ns/tuple")
		})
	}
	wide, err := (sortmerge.Join{}).SetupStationary(s, join.Band{Width: 1000}, join.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("count_wide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := wide.Join(rot, join.Discard{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rot.Len()), "ns/tuple")
	})
}

func BenchmarkNestedLoops(b *testing.B) {
	r, s := benchRelations(b, 8_000)
	st, err := (nested.Join{}).SetupStationary(s, join.Equi{}, join.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Join(r, join.Discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFragmentCodec(b *testing.B) {
	r, _ := benchRelations(b, 100_000)
	frag := &relation.Fragment{Rel: r, Index: 0, Of: 1}
	buf := make([]byte, relation.EncodedSize(frag))
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := relation.Encode(frag, buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := relation.Decode(buf[:n], "R"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingRevolution runs a full real revolution over in-process
// links: fragments, framing, flow control, the works.
func BenchmarkRingRevolution(b *testing.B) {
	const nodes = 4
	procs := make([]ring.Processor, nodes)
	for i := range procs {
		procs[i] = ring.ProcessorFunc(func(f *relation.Fragment) error { return nil })
	}
	rg, err := ring.New(ring.Config{Nodes: nodes}, nil, procs)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		_ = rg.Close()
	}()
	rel := workload.Sequential("R", 400_000, 4)
	frags, err := relation.Partition(rel, nodes)
	if err != nil {
		b.Fatal(err)
	}
	perNode := make([][]*relation.Fragment, nodes)
	for i, f := range frags {
		perNode[i] = []*relation.Fragment{f}
	}
	b.SetBytes(int64(rel.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rg.Run(perNode); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCycloJoinEndToEnd measures a complete distributed join through
// the public API.
func BenchmarkCycloJoinEndToEnd(b *testing.B) {
	r, s := benchRelations(b, 200_000)
	cluster, err := cyclojoin.NewCluster(cyclojoin.Config{
		Nodes:     4,
		Algorithm: cyclojoin.HashJoin(),
		Predicate: cyclojoin.EquiJoin(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		_ = cluster.Close()
	}()
	b.SetBytes(int64(r.Bytes() + s.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.JoinRelations(r, s, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQL3Way measures SELECT COUNT(*) over a three-way join through the
// SQL engine on a warm 4-node ring, in the three shapes the engine's placement
// rule tells apart: even tables and a large rotating table run as one
// revolution against key-placed b and c; a tiny rotating table keeps the
// left-deep sequence, because placing a million stationary tuples by key
// would cost more than the 6 000 probes it saves (BenchmarkPlacement has
// both sides of that choice). The engine keeps its tables stationed, so an
// op over unchanged tables is one revolution; even_200k/cold registers a, b
// and c again before every op, which stations all three anew. stations/op
// counts core's setup calls.
func BenchmarkSQL3Way(b *testing.B) {
	const sql = "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k"
	for _, shape := range []struct {
		name    string
		a, b, c int
		cold    bool
	}{
		{"even_200k/cold", 200_000, 200_000, 200_000, true},
		{"even_200k/warm", 200_000, 200_000, 200_000, false},
		{"tiny_rotating_2k_x_1M", 2_000, 1_000_000, 200_000, false},
		{"big_rotating_1M", 1_000_000, 200_000, 200_000, false},
	} {
		b.Run(shape.name, func(b *testing.B) {
			engine, register := sqlEngine(b, map[string]int{"a": shape.a, "b": shape.b, "c": shape.c})
			before := func() {}
			if shape.cold {
				before = register
			}
			runSQL(b, engine, before, sql)
		})
	}
}

// BenchmarkSQLAlternating alternates the three-way count with a two-way count
// over two of its tables on one engine, one op being both: the two
// statements station b differently (a side, then the rotating table) and
// share c.
func BenchmarkSQLAlternating(b *testing.B) {
	engine, _ := sqlEngine(b, map[string]int{"a": 200_000, "b": 200_000, "c": 200_000})
	runSQL(b, engine, func() {},
		"SELECT COUNT(*) FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k",
		"SELECT COUNT(*) FROM b JOIN c ON b.k = c.k")
}

// sqlEngine generates tables a, b and c of the given sizes over the largest
// one's key domain and builds a 4-host engine over them. register registers
// the three tables (again): a new version of each.
func sqlEngine(b *testing.B, sizes map[string]int) (engine *cyclojoin.QueryEngine, register func()) {
	b.Helper()
	domain := 0
	for _, n := range sizes {
		domain = max(domain, n)
	}
	names := []string{"a", "b", "c"}
	rels := make([]*cyclojoin.Relation, len(names))
	for i, name := range names {
		var err error
		if rels[i], err = workload.Generate(workload.Spec{Name: name, Tuples: sizes[name], KeyDomain: domain, Seed: int64(7 + i), PayloadWidth: 4}); err != nil {
			b.Fatal(err)
		}
	}
	cat := cyclojoin.NewCatalog()
	register = func() {
		for i, name := range names {
			if err := cat.Register(name, "k", rels[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	register()
	engine, err := cyclojoin.NewQueryEngine(cat, 4, cyclojoin.JoinOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = engine.Close()
	})
	return engine, register
}

// coreStations sums core_stations_total over both placements.
func coreStations() int64 {
	var n int64
	for _, placement := range []string{"position", "key"} {
		n += metrics.Default().Counter("core_stations_total", "", "placement", placement).Value()
	}
	return n
}

// runSQL times ops of before and then every statement of sqls, after one
// untimed pass that builds the ring and stations what a warm op reuses.
func runSQL(b *testing.B, engine *cyclojoin.QueryEngine, before func(), sqls ...string) {
	b.Helper()
	op := func() {
		before()
		for _, sql := range sqls {
			if _, err := engine.Execute(sql); err != nil {
				b.Fatal(err)
			}
		}
	}
	op()
	stations := coreStations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(coreStations()-stations)/float64(b.N), "stations/op")
}

// BenchmarkPlacement is the evidence for the engine's placement rule
// (query's chooseShape: place by key when (nodes−1)·|rotating| ≥ |stationary|):
// the same two-way count through core, stationed where the data lies and
// stationed by key hash, on one shape from either side of the inequality.
func BenchmarkPlacement(b *testing.B) {
	const nodes = 4
	for _, shape := range []struct {
		name string
		r, s int
	}{
		{"even_200k", 200_000, 200_000},
		{"tiny_rotating_2k_x_1M", 2_000, 1_000_000},
	} {
		domain := max(shape.r, shape.s)
		r, err := workload.Generate(workload.Spec{Name: "R", Tuples: shape.r, KeyDomain: domain, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		s, err := workload.Generate(workload.Spec{Name: "S", Tuples: shape.s, KeyDomain: domain, Seed: 8})
		if err != nil {
			b.Fatal(err)
		}
		rParts, err := relation.Partition(r, nodes)
		if err != nil {
			b.Fatal(err)
		}
		rFrags := make([][]*relation.Fragment, nodes)
		for i, f := range rParts {
			rFrags[i] = []*relation.Fragment{f}
		}
		for _, placement := range []struct {
			name  string
			setup func(c *core.Cluster) (*core.Side, error)
			p     core.Placement
		}{
			{"position", func(c *core.Cluster) (*core.Side, error) {
				sFrags, err := relation.Partition(s, nodes)
				if err != nil {
					return nil, err
				}
				return c.SetupSide(sFrags)
			}, core.ByPosition},
			{"key", func(c *core.Cluster) (*core.Side, error) {
				return c.SetupSideByKey(s)
			}, core.ByKey},
		} {
			b.Run(shape.name+"/"+placement.name, func(b *testing.B) {
				c, err := core.NewCluster(core.Config{Nodes: nodes, Algorithm: hashjoin.Join{}, Predicate: join.Equi{}})
				if err != nil {
					b.Fatal(err)
				}
				defer func() {
					_ = c.Close()
				}()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					side, err := placement.setup(c)
					if err != nil {
						b.Fatal(err)
					}
					rot, err := c.SetupRotating(rFrags, placement.p)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := c.Revolve(rot, []*core.Side{side}, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func byteLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dkB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// BenchmarkTransportThroughput is the real-code analogue of the Fig 12
// comparison: the same message stream pushed through the zero-copy
// in-process link, the TCP-socket link, and the kernel-TCP baseline with
// its extra staging copies.
func BenchmarkTransportThroughput(b *testing.B) {
	const msgSize = 1 << 20
	run := func(b *testing.B, qa, qb rdma.QueuePair) {
		b.Helper()
		dev := rdma.OpenDevice("bench")
		const inflight = 4
		for i := 0; i < inflight; i++ {
			rb, err := dev.Register(msgSize)
			if err != nil {
				b.Fatal(err)
			}
			if err := qb.PostRecv(rb); err != nil {
				b.Fatal(err)
			}
		}
		sendBufs := make([]*rdma.Buffer, inflight)
		for i := range sendBufs {
			sb, err := dev.Register(msgSize)
			if err != nil {
				b.Fatal(err)
			}
			if err := sb.SetLen(msgSize); err != nil {
				b.Fatal(err)
			}
			sendBufs[i] = sb
		}
		b.SetBytes(msgSize)
		b.ResetTimer()
		go func() {
			i := 0
			for sent := 0; sent < b.N; sent++ {
				if err := qa.PostSend(sendBufs[i%inflight]); err != nil {
					return
				}
				if (sent+1)%inflight == 0 {
					// Reap send completions to recycle buffers.
					for j := 0; j < inflight; j++ {
						if c, ok := <-qa.Completions(); !ok || c.Err != nil {
							return
						}
					}
				}
				i++
			}
		}()
		received := 0
		for received < b.N {
			c, ok := <-qb.Completions()
			if !ok {
				b.Fatal("receiver CQ closed")
			}
			if c.Err != nil {
				b.Fatal(c.Err)
			}
			if c.Op != rdma.OpRecv {
				continue
			}
			received++
			if err := qb.PostRecv(c.Buf); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		_ = qa.Close()
		_ = qb.Close()
	}

	b.Run("memlink", func(b *testing.B) {
		qa, qb := memlink.Pair()
		run(b, qa, qb)
	})
	b.Run("tcplink", func(b *testing.B) {
		c1, c2 := loopbackPair(b)
		run(b, tcplink.New(c1), tcplink.New(c2))
	})
	b.Run("kerneltcp", func(b *testing.B) {
		c1, c2 := loopbackPair(b)
		qa, _ := kerneltcp.New(c1)
		qb, _ := kerneltcp.New(c2)
		run(b, qa, qb)
	})
}

// loopbackPair returns two connected TCP sockets on 127.0.0.1.
func loopbackPair(b *testing.B) (net.Conn, net.Conn) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		_ = ln.Close()
	}()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		ch <- accepted{conn, err}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		b.Fatal(acc.err)
	}
	return dial, acc.conn
}

// BenchmarkRegistrationCost quantifies why the ring registers its buffer
// pool once up front (§III-C): the modeled registration cost of a pool vs
// the cost of registering per transfer.
func BenchmarkRegistrationCost(b *testing.B) {
	const bufBytes = 4 << 20
	b.Run("onceUpFront", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev := rdma.OpenDevice("bench")
			if _, err := dev.RegisterPool(4, bufBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("perTransfer", func(b *testing.B) {
		dev := rdma.OpenDevice("bench")
		for i := 0; i < b.N; i++ {
			if _, err := dev.Register(bufBytes); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(dev.Stats().ModeledCost.Seconds()/float64(b.N)*1e6, "modeled-us/op")
	})
}
