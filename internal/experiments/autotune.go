package experiments

import (
	"fmt"

	"cyclojoin/internal/costmodel"
	"cyclojoin/internal/stats"
)

// AutotunePoint is one recentre decision of the closed-loop sweep.
type AutotunePoint struct {
	// Triangle is the 1-based triangle-probe index at which the tuner
	// recentred here.
	Triangle int
	// ChunkBytes is the centre chosen.
	ChunkBytes int
	// Throughput is the model throughput (bytes/s) at that centre.
	Throughput float64
}

// AutotuneResult is the outcome of AutotuneSweep.
type AutotuneResult struct {
	// Trajectory holds the centre after each recentre that moved it,
	// plus the initial centre at triangle 0.
	Trajectory []AutotunePoint
	// Converged is the final centre.
	Converged int
	// ConvergedTput is the model throughput at Converged.
	ConvergedTput float64
	// BestFixed is the best fixed chunk size on the Fig 5 ladder.
	BestFixed int
	// BestFixedTput is the model throughput at BestFixed.
	BestFixedTput float64
}

// autotuneTriangles is the sweep length: triangle probes (4 windows of
// observations each) the driver runs. The climb from 1 B to the knee
// takes one recentre per doubling, so a few dozen triangles converge
// with margin to spare.
const autotuneTriangles = 48

// AutotuneSweep drives the autotuner closed-loop against the calibrated
// Fig 5 curve: every simulated transfer uses the chunk size the tuner
// currently recommends and takes cal.TransferTime, so the tuner observes
// exactly the cal.RDMAThroughput rate for that size. Starting from the
// 1 B end of the ladder (the "dizzy" regime), it must climb to the
// sweet spot — the smallest chunk within upMargin of link saturation —
// live, with no prior knowledge of the curve.
func AutotuneSweep(cal costmodel.Calibration) AutotuneResult {
	tuner := newAutotuner(1, 1<<30)
	res := AutotuneResult{
		Trajectory: []AutotunePoint{{
			Triangle:   0,
			ChunkBytes: tuner.Best(),
			Throughput: cal.RDMAThroughput(tuner.Best()),
		}},
	}
	// One triangle = 4 probe windows; drive enough observations to close
	// each window regardless of the tuner's internal window length.
	const obsPerTriangle = 4 * 16
	for tri := 1; tri <= autotuneTriangles; tri++ {
		for i := 0; i < obsPerTriangle; i++ {
			s := tuner.ChunkBytes()
			tuner.Observe(s, cal.TransferTime(s))
		}
		if best := tuner.Best(); best != res.Trajectory[len(res.Trajectory)-1].ChunkBytes {
			res.Trajectory = append(res.Trajectory, AutotunePoint{
				Triangle:   tri,
				ChunkBytes: best,
				Throughput: cal.RDMAThroughput(best),
			})
		}
	}
	res.Converged = tuner.Best()
	res.ConvergedTput = cal.RDMAThroughput(res.Converged)
	for _, s := range Fig5ChunkSizes() {
		if t := cal.RDMAThroughput(s); t > res.BestFixedTput {
			res.BestFixed, res.BestFixedTput = s, t
		}
	}
	return res
}

// AutotuneTable renders the sweep as a convergence trajectory plus the
// headline comparison against the best fixed chunk of the Fig 5 ladder.
func AutotuneTable(cal costmodel.Calibration) (*stats.Table, error) {
	res := AutotuneSweep(cal)
	t := stats.NewTable("Fig 5 live: chunk-size autotuner convergence (closed loop)",
		"triangle", "centre", "throughput [Gb/s]", "of best fixed")
	for _, p := range res.Trajectory {
		t.AddRow(fmt.Sprintf("%d", p.Triangle), byteLabel(p.ChunkBytes),
			stats.Gbps(p.Throughput), stats.Pct(p.Throughput/res.BestFixedTput))
	}
	t.SetNote(fmt.Sprintf(
		"converged to %s in %d recentres: %s of the best fixed chunk (%s at %s)",
		byteLabel(res.Converged), len(res.Trajectory)-1,
		stats.Pct(res.ConvergedTput/res.BestFixedTput),
		byteLabel(res.BestFixed), stats.Gbps(res.BestFixedTput)))
	return t, nil
}
