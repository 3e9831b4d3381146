package experiments

import (
	"math"
	"strings"
	"testing"

	"cyclojoin/internal/costmodel"
	"cyclojoin/internal/planner"
)

func cal() costmodel.Calibration { return costmodel.Default() }

func TestAllExperimentsRender(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(cal())
			if err != nil {
				t.Fatal(err)
			}
			if tbl.Rows() == 0 {
				t.Error("empty table")
			}
			var b strings.Builder
			if err := tbl.Render(&b); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.String(), tbl.Title()) {
				t.Error("render lost the title")
			}
		})
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig7")
	if err != nil || e.ID != "fig7" {
		t.Fatalf("ByID(fig7) = %v, %v", e.ID, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id: want error")
	}
}

// TestFig7Shape asserts the three claims of §V-B: setup divides by the ring
// size (16.2 s → 2.7 s), the join phase is unaffected by distribution, and
// no network delay is visible.
func TestFig7Shape(t *testing.T) {
	rows, err := Fig7Rows(cal())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != MaxNodes {
		t.Fatalf("%d rows", len(rows))
	}
	s1, s6 := rows[0].Setup.Seconds(), rows[5].Setup.Seconds()
	if math.Abs(s1-16.2) > 0.5 {
		t.Errorf("single-host setup = %.1fs, paper 16.2s", s1)
	}
	if ratio := s1 / s6; ratio < 5.5 || ratio > 6.5 {
		t.Errorf("setup speedup over 6 nodes = %.2f, paper: factor 6", ratio)
	}
	base := rows[0].Join.Seconds()
	for _, r := range rows {
		if math.Abs(r.Join.Seconds()-base)/base > 0.25 {
			t.Errorf("join phase at %d nodes = %.2fs; should stay ≈%.2fs", r.Nodes, r.Join.Seconds(), base)
		}
		if r.Sync.Seconds() > 0.15*base {
			t.Errorf("visible sync %.2fs at %d nodes; paper saw none for the hash join", r.Sync.Seconds(), r.Nodes)
		}
	}
	// Distribution must pay off overall.
	if rows[5].Total() >= rows[0].Total() {
		t.Error("6-node total not faster than single host")
	}
}

// TestFig8Shape asserts §V-C: size-independent setup, join phase linear in
// |R| (16.2 s at 19.2 GB).
func TestFig8Shape(t *testing.T) {
	rows, err := Fig8Rows(cal())
	if err != nil {
		t.Fatal(err)
	}
	setupBase := rows[0].Setup.Seconds()
	for _, r := range rows {
		if math.Abs(r.Setup.Seconds()-setupBase)/setupBase > 0.01 {
			t.Errorf("setup at %d nodes = %.2fs, should be constant %.2fs", r.Nodes, r.Setup.Seconds(), setupBase)
		}
	}
	j1, j6 := rows[0].Join.Seconds(), rows[5].Join.Seconds()
	if ratio := j6 / j1; math.Abs(ratio-6) > 0.6 {
		t.Errorf("join phase grew %.2fx over 6x data, want ≈6x (linear)", ratio)
	}
	if math.Abs(j6-16.2) > 1.0 {
		t.Errorf("join phase at 19.2 GB = %.1fs, paper 16.2s", j6)
	}
}

// TestFig9Shape asserts §V-D: no benefit for uniform data, growing benefit
// with skew, ≈5× at z = 0.9, and the advantage bounded by the ring size.
func TestFig9Shape(t *testing.T) {
	rows := Fig9Rows(cal())
	if len(rows) != len(Fig9ZipfFactors()) {
		t.Fatalf("%d rows", len(rows))
	}
	if a := rows[0].Advantage(); a > 1.2 {
		t.Errorf("uniform advantage = %.2f, want ≈1", a)
	}
	prev := 0.0
	for _, r := range rows {
		if a := r.Advantage(); a+1e-9 < prev {
			t.Errorf("advantage not monotone at z=%.2f: %.2f after %.2f", r.Z, a, prev)
		} else {
			prev = a
		}
		if r.Advantage() > float64(MaxNodes)+0.5 {
			t.Errorf("advantage %.2f at z=%.2f exceeds the ring-size bound", r.Advantage(), r.Z)
		}
	}
	last := rows[len(rows)-1]
	if last.Z != 0.90 {
		t.Fatalf("last row z=%.2f", last.Z)
	}
	if a := last.Advantage(); a < 3 || a > 8 {
		t.Errorf("advantage at z=0.9 = %.2f, paper ≈5", a)
	}
	// The local join must degrade by orders of magnitude (log-scale plot).
	if last.Local.Seconds() < 50*rows[0].Local.Seconds() {
		t.Errorf("local join at z=0.9 only %.0fx over uniform", last.Local.Seconds()/rows[0].Local.Seconds())
	}
}

// TestFig10Shape asserts §V-E: sorting dominates small rings; the merge
// phase beats the hash probe; setup amortizes with ring size.
func TestFig10Shape(t *testing.T) {
	smRows, err := Fig10Rows(cal())
	if err != nil {
		t.Fatal(err)
	}
	hashRows, err := Fig7Rows(cal())
	if err != nil {
		t.Fatal(err)
	}
	// Single-host sort-merge is far slower overall than hash join.
	if smRows[0].Total() < 3*hashRows[0].Total() {
		t.Errorf("single-host sort-merge %.1fs not clearly slower than hash %.1fs",
			smRows[0].Total().Seconds(), hashRows[0].Total().Seconds())
	}
	// But its join phase is faster (cache-friendly sequential merge).
	for i := range smRows {
		if smRows[i].Join >= hashRows[i].Join {
			t.Errorf("at %d nodes merge join %.2fs not faster than hash probe %.2fs",
				smRows[i].Nodes, smRows[i].Join.Seconds(), hashRows[i].Join.Seconds())
		}
	}
	// Setup falls monotonically with ring size.
	for i := 1; i < len(smRows); i++ {
		if smRows[i].Setup >= smRows[i-1].Setup {
			t.Errorf("sort setup did not fall from %d to %d nodes", smRows[i-1].Nodes, smRows[i].Nodes)
		}
	}
}

// TestFig11Shape asserts §V-F: the merge join outruns the link, exposing
// sync time — 6.4 s join + ≈2.3 s sync at 19.2 GB, i.e. the revolution is
// pinned to the 1.1 GB/s wire.
func TestFig11Shape(t *testing.T) {
	rows, err := Fig11Rows(cal())
	if err != nil {
		t.Fatal(err)
	}
	six := rows[5]
	if math.Abs(six.Join.Seconds()-6.4) > 0.7 {
		t.Errorf("merge join at 19.2 GB = %.1fs, paper 6.4s", six.Join.Seconds())
	}
	if six.Sync.Seconds() < 1.2 || six.Sync.Seconds() > 3.5 {
		t.Errorf("sync at 19.2 GB = %.1fs, paper 2.3s", six.Sync.Seconds())
	}
	// Sync grows with ring size (more data over the same links).
	for i := 2; i < len(rows); i++ {
		if rows[i].Sync < rows[i-1].Sync {
			t.Errorf("sync fell from %d to %d nodes", rows[i-1].Nodes, rows[i].Nodes)
		}
	}
	// The revolution is wire-bound: wall ≈ |R| / effective bandwidth.
	c := cal()
	wire := float64(MaxNodes*Fig8TuplesPerNode*c.TupleBytes) / c.EffectiveBandwidth()
	if !almostEqual(six.Wall.Seconds(), wire, 0.25) {
		t.Errorf("wall %.1fs vs wire floor %.1fs: revolution should be link-bound", six.Wall.Seconds(), wire)
	}
	// And single-host has no sync at all.
	if rows[0].Sync != 0 {
		t.Errorf("single host sync = %v", rows[0].Sync)
	}
}

// TestFig12Shape asserts §V-G: RDMA wins everywhere; the absolute gap is
// largest with all cores joining; RDMA total time flattens at the link
// floor once threads ≥ 3.
func TestFig12Shape(t *testing.T) {
	rows := Fig12Rows(cal())
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	gap4 := rows[3].TCP.Wall() - rows[3].RDMA.Wall()
	for _, r := range rows {
		if r.TCP.Wall() <= r.RDMA.Wall() {
			t.Errorf("threads=%d: TCP %.1fs not slower than RDMA %.1fs",
				r.Threads, r.TCP.Wall().Seconds(), r.RDMA.Wall().Seconds())
		}
		if gap := r.TCP.Wall() - r.RDMA.Wall(); gap > gap4 {
			t.Errorf("threads=%d gap %.1fs exceeds the 4-thread gap %.1fs", r.Threads, gap.Seconds(), gap4.Seconds())
		}
	}
	// RDMA hits the wire floor: 3 and 4 threads have equal wall clocks.
	if !almostEqual(rows[2].RDMA.Wall().Seconds(), rows[3].RDMA.Wall().Seconds(), 0.02) {
		t.Errorf("RDMA wall at 3 (%.2fs) and 4 (%.2fs) threads should both sit at the link floor",
			rows[2].RDMA.Wall().Seconds(), rows[3].RDMA.Wall().Seconds())
	}
}

// TestTable1Shape asserts the Table I loads within a few points.
func TestTable1Shape(t *testing.T) {
	rows := Fig12Rows(cal())
	wantTCP := []float64{0.31, 0.59, 0.84, 0.86}
	wantRDMA := []float64{0.25, 0.50, 0.76, 1.00}
	for i, r := range rows {
		if math.Abs(r.TCP.CPULoad-wantTCP[i]) > 0.05 {
			t.Errorf("TCP load at %d threads = %.0f%%, paper %.0f%%", r.Threads, r.TCP.CPULoad*100, wantTCP[i]*100)
		}
		if math.Abs(r.RDMA.CPULoad-wantRDMA[i]) > 0.02 {
			t.Errorf("RDMA load at %d threads = %.0f%%, paper %.0f%%", r.Threads, r.RDMA.CPULoad*100, wantRDMA[i]*100)
		}
	}
	// The paper's plateau: TCP stalls below full utilization at 4 threads.
	if rows[3].TCP.CPULoad >= 0.95 {
		t.Error("TCP at 4 threads should plateau below full utilization")
	}
}

func TestFig5RowsMonotone(t *testing.T) {
	rows := Fig5Rows(cal())
	for i := 1; i < len(rows); i++ {
		if rows[i].Throughput < rows[i-1].Throughput {
			t.Errorf("throughput fell at chunk %d", rows[i].ChunkBytes)
		}
	}
	last := rows[len(rows)-1]
	if last.Throughput/cal().EffectiveBandwidth() < 0.999 {
		t.Error("1 GB chunks must saturate the link")
	}
}

func TestFig3RowsShape(t *testing.T) {
	rows := Fig3Rows()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if !(rows[2].Total() < rows[1].Total() && rows[1].Total() < rows[0].Total()) {
		t.Error("overheads must fall from kernel TCP to TOE to RDMA")
	}
}

func TestByteLabel(t *testing.T) {
	tests := []struct {
		n    int
		want string
	}{
		{1, "1B"}, {512, "512B"}, {1 << 10, "1kB"}, {4 << 10, "4kB"},
		{1 << 20, "1MB"}, {1 << 30, "1GB"},
	}
	for _, tt := range tests {
		if got := byteLabel(tt.n); got != tt.want {
			t.Errorf("byteLabel(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

// TestModelConsistency cross-validates the two performance models: the
// planner's closed-form cost predictions must agree with the discrete-event
// simulation that generates the figures, within a modest tolerance (the DES
// adds pipeline warmup/drain the closed form ignores).
func TestModelConsistency(t *testing.T) {
	c := cal()
	for nodes := 1; nodes <= MaxNodes; nodes++ {
		w := planner.Workload{
			RTuples: Fig8TuplesPerNode * nodes,
			STuples: Fig8TuplesPerNode * nodes,
			Nodes:   nodes,
		}
		plans, err := planner.Candidates(c, w)
		if err != nil {
			t.Fatal(err)
		}
		var hashPlan, smPlan planner.Plan
		for _, p := range plans {
			if !p.RotateR {
				continue
			}
			switch p.Algorithm {
			case planner.Hash:
				hashPlan = p
			case planner.SortMerge:
				smPlan = p
			}
		}
		hashRows, err := Fig8Rows(c)
		if err != nil {
			t.Fatal(err)
		}
		smRows, err := Fig11Rows(c)
		if err != nil {
			t.Fatal(err)
		}
		desHash := hashRows[nodes-1].Total().Seconds()
		desSM := smRows[nodes-1].Total().Seconds()
		if !almostEqual(hashPlan.Total().Seconds(), desHash, 0.15) {
			t.Errorf("nodes=%d: hash plan %.1fs vs DES %.1fs", nodes, hashPlan.Total().Seconds(), desHash)
		}
		if !almostEqual(smPlan.Total().Seconds(), desSM, 0.15) {
			t.Errorf("nodes=%d: sort-merge plan %.1fs vs DES %.1fs", nodes, smPlan.Total().Seconds(), desSM)
		}
	}
}

// TestFootnoteShape: the network must beat the disk at every unit size,
// overwhelmingly at small units (latency) and by ≈10× in bandwidth at
// large ones.
func TestFootnoteShape(t *testing.T) {
	rows := FootnoteRows(cal())
	for _, r := range rows {
		if r.Network >= r.Disk {
			t.Errorf("unit %d B: network %v not faster than disk %v", r.Bytes, r.Network, r.Disk)
		}
	}
	small, large := rows[0], rows[len(rows)-1]
	if small.Advantage() < 100 {
		t.Errorf("small-unit advantage %.0fx; ms-vs-µs latency should dominate", small.Advantage())
	}
	if a := large.Advantage(); a < 5 || a > 20 {
		t.Errorf("large-unit advantage %.1fx; bandwidth ratio is ≈10x", a)
	}
}

// TestRegCostShape: on-demand registration cost grows linearly with
// transfers while the static pool stays flat.
func TestRegCostShape(t *testing.T) {
	rows := RegCostRows(cal())
	if len(rows) < 3 {
		t.Fatalf("%d rows", len(rows))
	}
	staticBase := rows[0].Static
	for i, r := range rows {
		if r.Static != staticBase {
			t.Errorf("static cost changed at row %d", i)
		}
		if r.OnDemand <= r.Static && r.Transfers > regCostSlots {
			t.Errorf("%d transfers: on-demand %v not above static %v", r.Transfers, r.OnDemand, r.Static)
		}
	}
	// Linearity: 10x transfers ≈ 10x cost.
	ratio := rows[2].OnDemand.Seconds() / rows[1].OnDemand.Seconds()
	if ratio < 8 || ratio > 12 {
		t.Errorf("on-demand cost scaled %.1fx for 10x transfers", ratio)
	}
}
