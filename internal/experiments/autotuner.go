package experiments

import (
	"math/bits"
	"time"
)

// autotuner adapts the fragment chunk size against observed transfer
// throughput, finding the paper's Fig 5 sweet spot live instead of
// hard-coding it. The search space is the power-of-two ladder of Fig 5;
// the tuner hill-climbs it with a triangle probe: it spends one window at
// the current centre, one at half the size, one back at the centre, and
// one at double the size, then recentres on whichever of the three earned
// the best smoothed throughput.
//
// Moving UP the ladder requires a real improvement (see upMargin): at
// equal throughput the tuner prefers the smaller chunk, so on Fig 5's
// saturating curve it settles at the knee — the smallest size within a
// few percent of link speed — rather than drifting to the bound. Smaller
// chunks at equal throughput mean lower per-hop latency, finer recovery
// granularity, and more pipeline overlap.
//
// ChunkBytes reports the size a closed-loop driver should use for its
// next transfers (the probe schedule) and Best the converged centre.
// AutotuneSweep is the driver, single-threaded and closed-loop: it feeds
// Observe from the calibrated Fig 5 cost model.
type autotuner struct {
	minLog uint // smallest probed size, log2
	maxLog uint // largest probed size, log2
	curLog uint // centre of the climb, log2
	window int  // observations per probe window
	cycle  int  // position in the triangle probe: cur, half, cur, double

	// One probe window's accumulators.
	winBytes int64
	winDur   time.Duration
	winN     int

	// Smoothed throughput (bytes/s) per power-of-two bucket; a window is
	// bucketed by its own mean chunk size.
	seen [maxChunkLog + 1]bool
	tput [maxChunkLog + 1]float64
}

const (
	// maxChunkLog tops the ladder, which runs from 1 B to 1 GB: the
	// extent of the paper's Fig 5 sweep.
	maxChunkLog = 30
	// autotuneWindow is the default number of observations per probe
	// window. Small enough to recentre within a revolution's worth of
	// hops, large enough to smooth scheduler jitter.
	autotuneWindow = 16
	// ewmaAlpha is the weight of a new window in the per-bucket smoothed
	// throughput.
	ewmaAlpha = 0.4
	// upMargin is the relative throughput improvement a larger chunk must
	// show before the tuner moves up the ladder (≥2%); moving down only
	// has to match. The asymmetry parks the climb at the knee of a
	// saturating curve instead of its upper bound.
	upMargin = 1.02
)

// newAutotuner creates a tuner probing power-of-two chunk sizes in
// [minBytes, maxBytes] (both rounded to powers of two, clamped to the
// Fig 5 ladder of 1 B–1 GB). The climb starts at the lower bound — the
// paper's Fig 5 narrative read left to right.
func newAutotuner(minBytes, maxBytes int) *autotuner {
	lo := log2Clamp(minBytes)
	hi := log2Clamp(maxBytes)
	if hi < lo {
		hi = lo
	}
	return &autotuner{minLog: lo, maxLog: hi, curLog: lo, window: autotuneWindow}
}

// log2Clamp rounds n to the nearest power-of-two exponent and clamps it
// to the Fig 5 ladder.
func log2Clamp(n int) uint {
	if n < 1 {
		n = 1
	}
	l := uint(bits.Len(uint(n)) - 1)
	// Round up once the remainder passes half the lower power of two.
	if l < maxChunkLog && uint(n)-(1<<l) > (1<<l)/2 {
		l++
	}
	if l > maxChunkLog {
		l = maxChunkLog
	}
	return l
}

// ChunkBytes returns the chunk size a closed-loop driver should use for
// its next transfers. It cycles through the triangle-probe schedule as
// windows complete; use Best for the converged recommendation.
func (a *autotuner) ChunkBytes() int { return 1 << a.probeLog() }

// Best returns the centre of the climb — the tuner's current best fixed
// chunk size.
func (a *autotuner) Best() int { return 1 << a.curLog }

// Observe feeds one transfer measurement: bytes moved and the elapsed
// time they took, whose ratio is Fig 5's y-axis. Zero-valued samples are
// ignored.
func (a *autotuner) Observe(bytes int, elapsed time.Duration) {
	if bytes <= 0 || elapsed <= 0 {
		return
	}
	a.winBytes += int64(bytes)
	a.winDur += elapsed
	a.winN++
	if a.winN >= a.window {
		a.closeWindow()
	}
}

// closeWindow folds the finished probe window into the per-size smoothed
// throughput, advances the probe schedule, and recentres at the end of
// each triangle.
func (a *autotuner) closeWindow() {
	idx := log2Clamp(int(a.winBytes / int64(a.winN)))
	t := float64(a.winBytes) / a.winDur.Seconds()
	if a.seen[idx] {
		a.tput[idx] += ewmaAlpha * (t - a.tput[idx])
	} else {
		a.tput[idx] = t
		a.seen[idx] = true
	}
	a.winBytes, a.winDur, a.winN = 0, 0, 0
	a.cycle = (a.cycle + 1) % 4
	if a.cycle == 0 {
		a.recentre()
	}
}

// probeLog maps the triangle-probe position to a size: centre, half,
// centre, double.
func (a *autotuner) probeLog() uint {
	switch a.cycle {
	case 1:
		if a.curLog > a.minLog {
			return a.curLog - 1
		}
	case 3:
		if a.curLog < a.maxLog {
			return a.curLog + 1
		}
	}
	return a.curLog
}

// recentre moves the climb's centre to the best-performing neighbour.
func (a *autotuner) recentre() {
	cur := a.curLog
	bestLog, bestT := cur, a.tput[cur]
	if lo := cur - 1; cur > a.minLog && a.seen[lo] && a.tput[lo] >= bestT {
		// Downhill at equal or better throughput: prefer the smaller
		// chunk.
		bestLog, bestT = lo, a.tput[lo]
	}
	if hi := cur + 1; cur < a.maxLog && a.seen[hi] && a.tput[hi] > bestT*upMargin {
		bestLog = hi
	}
	a.curLog = bestLog
}
