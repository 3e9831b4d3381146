package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cyclojoin/internal/metrics"
)

// benchSpan is a span the benchmark records around one of its own calls into
// the product. Times are relative to the flight recorder's epoch so the spans
// line up with the product's.
type benchSpan struct {
	name       string
	op         int
	start, dur time.Duration
}

// spanLog keeps the benchmark's spans in memory until the run ends. A nil
// log records nothing, which is how untraced windows run.
type spanLog struct {
	epoch time.Time
	op    int
	spans []benchSpan
}

func (l *spanLog) time(name string, f func() error) error {
	if l == nil {
		return f()
	}
	start := time.Since(l.epoch)
	err := f()
	l.spans = append(l.spans, benchSpan{name: name, op: l.op, start: start, dur: time.Since(l.epoch) - start})
	return err
}

// limit ends a window after ops operations or dur of wall time, whichever
// is set and comes first.
type limit struct {
	ops int
	dur time.Duration
}

func (l limit) reached(n int, elapsed time.Duration) bool {
	return (l.ops > 0 && n >= l.ops) || (l.dur > 0 && elapsed >= l.dur)
}

// sample is one op's timing.
type sample struct {
	wall, station, rotate time.Duration
}

// window is what a closed loop of ops measured. One client: the next op
// starts when the previous one returns.
type window struct {
	samples []sample
	failed  int
	// Process-wide deltas over the window.
	cpu      time.Duration
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
	heapSys  uint64
	counters map[string]int64
}

// runOps runs ops until lim is reached, comparing every op with the oracle.
// A wrong count or an error is a failed op; it is reported, not fatal.
func runOps(inst *instance, want int64, lim limit, log *spanLog) window {
	var w window
	before := metrics.Default().Samples()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for n := 0; !lim.reached(n, time.Since(start)); n++ {
		if log != nil {
			log.op = n
		}
		var res opResult
		t0 := time.Now()
		err := log.time("bench.op", func() (err error) {
			res, err = inst.op(log)
			return err
		})
		wall := time.Since(t0)
		switch {
		case err != nil:
			w.failed++
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", n, err)
		case res.matches != want:
			w.failed++
			fmt.Fprintf(os.Stderr, "op %d: %d matches, oracle says %d\n", n, res.matches, want)
		}
		w.samples = append(w.samples, sample{wall: wall, station: res.station, rotate: res.rotate})
	}
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	w.alloc = m1.TotalAlloc - m0.TotalAlloc
	w.gcCycles = m1.NumGC - m0.NumGC
	w.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	w.heapSys = m1.HeapSys
	w.counters = counterDelta(before, metrics.Default().Samples())
	return w
}

func (w *window) ops() int { return len(w.samples) }

// wallMs returns the op wall times in milliseconds, sorted.
func (w *window) wallMs() []float64 {
	ms := make([]float64, len(w.samples))
	for i, s := range w.samples {
		ms[i] = millis(s.wall)
	}
	slices.Sort(ms)
	return ms
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

func median(values []float64) float64 {
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	return percentile(sorted, 50)
}

// counterDelta sums every series of each metric family (all nodes, all
// links) and returns after − before, keyed by name and by name{labels}.
func counterDelta(before, after []metrics.Sample) map[string]int64 {
	d := make(map[string]int64)
	add := func(samples []metrics.Sample, sign int64) {
		for _, s := range samples {
			d[s.Name] += sign * s.Value
			if s.Labels != "" {
				d[s.Name+"{"+s.Labels+"}"] += sign * s.Value
			}
		}
	}
	add(after, 1)
	add(before, -1)
	return d
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procFields returns the whitespace-separated fields of the line of a /proc
// file that starts with prefix, or nil when the file or line is missing.
func procFields(path, prefix string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, prefix) {
			return strings.Fields(line)
		}
	}
	return nil
}

// loadAvg1 is the 1-minute load average, or -1 when unknown.
func loadAvg1() float64 {
	if f := procFields("/proc/loadavg", ""); len(f) > 0 {
		if v, err := strconv.ParseFloat(f[0], 64); err == nil {
			return v
		}
	}
	return -1
}

// cpuSteal is the hypervisor-stolen CPU time so far, in clock ticks.
func cpuSteal() int64 {
	if f := procFields("/proc/stat", "cpu "); len(f) > 8 {
		if v, err := strconv.ParseInt(f[8], 10, 64); err == nil {
			return v
		}
	}
	return 0
}

// rssPeakMB is the process's peak resident set (VmHWM), or 0 when unknown.
func rssPeakMB() float64 {
	if f := procFields("/proc/self/status", "VmHWM:"); len(f) > 1 {
		if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
			return kb / 1024
		}
	}
	return 0
}
