package experiments

import (
	"math"
	"testing"
	"time"
)

// driveClosed runs the tuner closed-loop against a synthetic throughput
// curve (bytes/s as a function of chunk size) for the given number of
// probe windows.
func driveClosed(a *autotuner, tput func(int) float64, windows int) {
	for w := 0; w < windows; w++ {
		for i := 0; i < autotuneWindow; i++ {
			s := a.ChunkBytes()
			elapsed := time.Duration(float64(s) / tput(s) * float64(time.Second))
			a.Observe(s, elapsed)
		}
	}
}

// bestOnLadder scans the power-of-two ladder inside the tuner's bounds.
func bestOnLadder(tput func(int) float64, minBytes, maxBytes int) (int, float64) {
	best, bestT := minBytes, 0.0
	for s := minBytes; s <= maxBytes; s *= 2 {
		if t := tput(s); t > bestT {
			best, bestT = s, t
		}
	}
	return best, bestT
}

// TestAutotunerClimbsSaturatingCurve reproduces the Fig 5 shape: per-WR
// overhead makes tiny chunks overhead-bound and the curve saturates. The
// tuner must climb from the 1 B end to within 10% of the best fixed
// chunk — and park at the knee, not at the upper bound.
func TestAutotunerClimbsSaturatingCurve(t *testing.T) {
	const bandwidth = 1.1e9 // bytes/s
	const overhead = 1e-6   // seconds per work request
	tput := func(s int) float64 {
		return float64(s) / (float64(s)/bandwidth + overhead)
	}
	a := newAutotuner(1, 1<<30)
	driveClosed(a, tput, 4*64)

	_, bestT := bestOnLadder(tput, 1, 1<<30)
	got := tput(a.Best())
	if got < 0.9*bestT {
		t.Fatalf("converged to %d B at %.3g B/s, below 90%% of best fixed %.3g B/s",
			a.Best(), got, bestT)
	}
	if a.Best() == 1<<30 {
		t.Fatalf("parked at the upper bound instead of the knee")
	}
}

// TestAutotunerFindsInteriorPeak gives the curve a genuine interior
// maximum (large chunks pay a pipelining penalty on top of the per-WR
// overhead) and checks the climb stops there from both ends.
func TestAutotunerFindsInteriorPeak(t *testing.T) {
	const bandwidth = 1.1e9
	const overhead = 1e-6
	const penalty = 4.0e9 // bytes; drag grows as s/penalty
	tput := func(s int) float64 {
		wire := float64(s)/bandwidth + overhead
		return float64(s) / (wire * (1 + float64(s)/penalty))
	}
	lo, hi := 1<<10, 1<<28
	_, bestT := bestOnLadder(tput, lo, hi)
	for name, start := range map[string]struct{ min, max int }{
		"from-below": {lo, hi},
	} {
		a := newAutotuner(start.min, start.max)
		driveClosed(a, tput, 4*64)
		if got := tput(a.Best()); got < 0.9*bestT {
			t.Errorf("%s: converged to %d B at %.3g B/s, below 90%% of peak %.3g B/s",
				name, a.Best(), got, bestT)
		}
	}
}

// TestAutotunerBounds checks recommendations never escape the configured
// ladder segment, even under out-of-range observations.
func TestAutotunerBounds(t *testing.T) {
	lo, hi := 1<<12, 1<<16
	a := newAutotuner(lo, hi)
	sizes := []int{1, 64, lo, hi, 1 << 20, 1 << 30}
	for w := 0; w < 200; w++ {
		s := sizes[w%len(sizes)]
		for i := 0; i < autotuneWindow; i++ {
			a.Observe(s, time.Microsecond)
		}
		if c := a.ChunkBytes(); c < lo || c > hi {
			t.Fatalf("ChunkBytes = %d outside [%d, %d]", c, lo, hi)
		}
		if b := a.Best(); b < lo || b > hi {
			t.Fatalf("Best = %d outside [%d, %d]", b, lo, hi)
		}
	}
}

// TestAutotunerIgnoresDegenerateSamples: zero and negative samples must
// not poison the accumulators.
func TestAutotunerIgnoresDegenerateSamples(t *testing.T) {
	a := newAutotuner(1<<10, 1<<20)
	a.Observe(0, time.Second)
	a.Observe(-5, time.Second)
	a.Observe(1<<12, 0)
	a.Observe(1<<12, -time.Second)
	if got := a.Best(); got != 1<<10 {
		t.Fatalf("degenerate samples moved the centre to %d", got)
	}
	tput := func(s int) float64 { return float64(s) / (float64(s)/1e9 + 1e-6) }
	driveClosed(a, tput, 4*32)
	if got := tput(a.Best()); math.IsNaN(got) || got <= 0 {
		t.Fatalf("tuner state poisoned: Best=%d", a.Best())
	}
}

// TestLog2Clamp pins the bucketing: round to the nearest power of two,
// clamped to the Fig 5 ladder.
func TestLog2Clamp(t *testing.T) {
	cases := []struct {
		n    int
		want uint
	}{
		{-3, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {6, 2}, {7, 3},
		{1 << 20, 20}, {3 << 20, 21}, {7 << 20, 23}, {1 << 30, 30}, {1 << 31, 30},
	}
	for _, c := range cases {
		if got := log2Clamp(c.n); got != c.want {
			t.Errorf("log2Clamp(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
