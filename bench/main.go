// Command bench is the repository's end-to-end benchmark: four cyclo-join
// workloads, each a closed loop with one client on a 4-node ring, every op
// checked against an independent oracle, with a per-layer budget under the
// end-to-end numbers. See README.md for what each workload and metric is for.
//
//	bash bench/run.sh -workload hash_mem -seed 1 -seconds 26 -trace 0
//
// The last line of standard output is one JSON object: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// defaultWindow is the measured window BENCHMARK.json's run_seconds asks for.
const defaultWindow = 26 * time.Second

// processStart is where setup_s starts counting.
var processStart = time.Now()

// metricDef names one metric the benchmark prints. BENCHMARK.json repeats
// these tables; bench_test.go fails when the two disagree.
type metricDef struct {
	name, unit string
	// better is the direction of improvement, "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd is measured with tracing off, once per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"tuples_per_s", "tuples/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.15},
}

// perLayer explains the end-to-end numbers; it gates nothing. A metric that
// does not apply to a workload reads 0 with no samples.
var perLayer = []metricDef{
	// The tail of the op itself. It swings too far between runs of the same
	// code to carry a bound on a shared machine, so it is reported here.
	{name: "op_ms_p90", unit: "ms", better: "lower"},
	{name: "relation.partition_ms", unit: "ms", better: "lower"},
	{name: "relation.encode_ns_per_kb", unit: "ns/KB", better: "lower"},
	{name: "relation.view_bind_ns", unit: "ns", better: "lower"},
	{name: "relation.materialize_ns_per_kb", unit: "ns/KB", better: "lower"},
	{name: "relation.concat_ms", unit: "ms", better: "lower"},
	{name: "rdma.link_dial_ms", unit: "ms", better: "lower"},
	{name: "rdma.link_stream_gbps", unit: "Gbit/s", better: "higher"},
	{name: "rdma.link_rtt_us", unit: "us", better: "lower"},
	{name: "rdma.frames_per_op", unit: "count", better: "lower"},
	{name: "rdma.bytes_per_op", unit: "B", better: "lower"},
	{name: "ring.build_ms", unit: "ms", better: "lower"},
	{name: "ring.noop_revolution_ms", unit: "ms", better: "lower"},
	{name: "ring.hop_us", unit: "us", better: "lower"},
	{name: "ring.noop_gbps", unit: "Gbit/s", better: "higher"},
	{name: "ring.process_ms_per_op", unit: "ms", better: "lower"},
	{name: "ring.wait_ms_per_op", unit: "ms", better: "lower"},
	{name: "ring.wire_mb_per_op", unit: "MB", better: "lower"},
	{name: "ring.forwards_per_op", unit: "count", better: "lower"},
	{name: "ring.encodes_per_op", unit: "count", better: "lower"},
	{name: "ring.materializes_per_op", unit: "count", better: "lower"},
	{name: "ring.materialize_ratio", unit: "ratio", better: "lower"},
	{name: "join.setup_stationary_ns_per_tuple", unit: "ns/tuple", better: "lower"},
	{name: "join.setup_rotating_ns_per_tuple", unit: "ns/tuple", better: "lower"},
	{name: "join.phase_ns_per_tuple", unit: "ns/tuple", better: "lower"},
	{name: "join.stationary_bytes_per_tuple", unit: "B/tuple", better: "lower"},
	{name: "join.setup_alloc_b_per_tuple", unit: "B/tuple", better: "lower"},
	{name: "join.counter_emit_ns", unit: "ns", better: "lower"},
	{name: "join.materializer_emit_ns", unit: "ns", better: "lower"},
	{name: "join.materializer_alloc_b_per_match", unit: "B/match", better: "lower"},
	{name: "core.station_ms", unit: "ms", better: "lower"},
	{name: "core.rotate_ms", unit: "ms", better: "lower"},
	{name: "core.overhead_ms", unit: "ms", better: "lower"},
	{name: "query.parse_us", unit: "us", better: "lower"},
	{name: "query.warm_steps_ms", unit: "ms", better: "lower"},
	{name: "query.cold_ring_overhead_ms", unit: "ms", better: "lower"},
	{name: "query.intermediate_rows", unit: "rows", better: "lower"},
	{name: "runtime.gc_cycles_per_op", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms_per_op", unit: "ms", better: "lower"},
	{name: "runtime.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "runtime.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "trace.join_ms_per_op", unit: "ms", better: "lower"},
	{name: "trace.wait_ms_per_op", unit: "ms", better: "lower"},
	{name: "trace.stage_ms_per_op", unit: "ms", better: "lower"},
	{name: "trace.build_ms_per_op", unit: "ms", better: "lower"},
	{name: "trace.probe_ms_per_op", unit: "ms", better: "lower"},
	{name: "trace.sort_ms_per_op", unit: "ms", better: "lower"},
	{name: "trace.merge_ms_per_op", unit: "ms", better: "lower"},
	{name: "trace.wr_send_ms_per_op", unit: "ms", better: "lower"},
	{name: "trace.credit_stall_ms_per_op", unit: "ms", better: "lower"},
	{name: "trace.revolution_p50_ms", unit: "ms", better: "lower"},
	{name: "trace.coverage", unit: "ratio", better: "higher"},
	{name: "trace.reconcile_ratio", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.dropped_spans", unit: "count", better: "lower"},
}

// reading is one measured metric value and the number of samples behind it.
type reading struct {
	value float64
	n     int
}

// report collects a run's readings and its hygiene record.
type report struct {
	header            []string
	readings          map[string]reading
	attempted, failed int
}

func (r *report) set(name string, value float64, n int) {
	r.readings[name] = reading{value, n}
}

func (r *report) note(format string, args ...any) {
	r.header = append(r.header, fmt.Sprintf(format, args...))
}

func (r *report) count(w window) {
	r.attempted += w.ops()
	r.failed += w.failed
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	// window bounds the measured, untraced window.
	window limit
	// traced adds the per-layer work: counters over the window, the layer
	// probes, and a second window of length tracedWindow with the flight
	// recorder on.
	traced       bool
	tracedWindow limit
	// scale divides the input sizes (1 for the benchmark, 50 for the test).
	scale int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// warmup is the number of ops each set-up ends with.
	warmup int
	// outDir receives the raw samples and the Perfetto trace; empty writes
	// nothing.
	outDir string
}

// run executes one workload and returns everything it measured.
func run(cfg runConfig) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	rep := &report{readings: map[string]reading{}}
	load, steal := loadAvg1(), cpuSteal()
	if load > float64(runtime.NumCPU())/2 {
		rep.note("WARNING: 1-min load average %.2f exceeds nproc/2; timings will be noisy", load)
	}

	// Set-up: input generation, oracle, ring construction, link dial, Station
	// where the workload stations once, and the warm-up ops. The first one is
	// timed from process start.
	var in *inputs
	var inst *instance
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if in, err = w.generate(cfg.seed, cfg.scale); err != nil {
			return nil, err
		}
		if inst, err = w.build(in); err != nil {
			return nil, err
		}
		rep.count(runOps(inst, in.want, limit{ops: cfg.warmup}, nil))
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
	}

	win := runOps(inst, in.want, cfg.window, nil)
	if err := inst.close(); err != nil {
		return nil, err
	}
	rep.count(win)
	n := win.ops()
	ops := float64(n)
	ms := win.wallMs()
	var wall, station, rotate time.Duration
	for _, s := range win.samples {
		wall += s.wall
		station += s.station
		rotate += s.rotate
	}
	p50 := percentile(ms, 50)
	rep.set("setup_s", median(setupS), len(setupS))
	rep.set("op_ms_p50", p50, n)
	rep.set("op_ms_p90", percentile(ms, 90), n)
	rep.set("tuples_per_s", float64(in.tuplesPerOp)*ops/wall.Seconds(), n)
	rep.set("cpu_ms_per_op", millis(win.cpu)/ops, n)
	rep.set("alloc_mb_per_op", float64(win.alloc)/1e6/ops, n)

	if cfg.traced {
		// The paper's setup/join split, as core.Result reports it.
		rep.set("core.station_ms", millis(station)/ops, n)
		rep.set("core.rotate_ms", millis(rotate)/ops, n)
		rep.set("core.overhead_ms", millis(wall-station-rotate)/ops, n)
		c := win.counters
		perNodeOp := ops * nodes
		rep.set("ring.process_ms_per_op", float64(c["ring_process_ns_sum"])/1e6/perNodeOp, n)
		rep.set("ring.wait_ms_per_op", float64(c["ring_wait_ns_sum"])/1e6/perNodeOp, n)
		rep.set("ring.wire_mb_per_op", float64(c["ring_bytes_out_total"])/1e6/ops, n)
		fwd, mat := float64(c["ring_forwards_total"]), float64(c["ring_materializes_total"])
		rep.set("ring.forwards_per_op", fwd/ops, n)
		rep.set("ring.encodes_per_op", float64(c["ring_encodes_total"])/ops, n)
		rep.set("ring.materializes_per_op", mat/ops, n)
		if fwd+mat > 0 {
			rep.set("ring.materialize_ratio", mat/(fwd+mat), n)
		}
		frames, bytes := c["memlink_transfers_total"], c["memlink_bytes_total"]
		if w.tcp {
			frames, bytes = c[`tcplink_frames_total{dir="tx"}`], c[`tcplink_bytes_total{dir="tx"}`]
		}
		rep.set("rdma.frames_per_op", float64(frames)/ops, n)
		rep.set("rdma.bytes_per_op", float64(bytes)/ops, n)
		rep.set("runtime.gc_cycles_per_op", float64(win.gcCycles)/ops, n)
		rep.set("runtime.gc_pause_ms_per_op", millis(win.gcPause)/ops, n)
		rep.set("runtime.heap_peak_mb", float64(win.heapSys)/1e6, 1)

		if err := probeLayers(w, in, time.Duration(p50*1e6), rep); err != nil {
			return nil, err
		}
		lim := cfg.tracedWindow
		if most := w.traceOpCap(); most > 0 && (lim.ops == 0 || lim.ops > most) {
			lim.ops = most
		}
		twin, err := tracedWindow(w, in, lim, p50, cfg.outDir, rep)
		if err != nil {
			return nil, err
		}
		rep.count(twin)
		rep.set("runtime.rss_peak_mb", rssPeakMB(), 1)
	}

	rep.note("workload %s seed %d: %d relations x %d tuples x %d B, key domain %d, %s, %d nodes",
		w.name, cfg.seed, len(w.rels), w.tuples/cfg.scale, 8+w.payload, w.domain/cfg.scale, w.transport(), nodes)
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	rep.note("nproc %d GOMAXPROCS %d GOGC %s %s build %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(), vcsRevision())
	rep.note("window %.1fs, %d ops, %d warm-up ops x %d set-ups, oracle %d matches per op",
		wall.Seconds(), n, cfg.warmup, cfg.setups, in.want)
	rep.note("load average %.2f at start, CPU steal %d ticks during the run", load, cpuSteal()-steal)

	if cfg.outDir != "" {
		inOrder := make([]float64, n)
		for i, s := range win.samples {
			inOrder[i] = millis(s.wall)
		}
		raw, err := json.Marshal(map[string]any{"workload": w.name, "seed": cfg.seed, "op_ms": inOrder})
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(cfg.outDir, w.name+".samples.json"), raw, 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// vcsRevision is what the go tool stamped into the binary: the commit, with
// "-dirty" when the tree had local changes. A tree without git has neither.
func vcsRevision() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision" && len(s.Value) >= 12:
				rev = s.Value[:12]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

// jsonMetric and jsonResult are the last line of standard output.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the hygiene record, every reading by name with its unit and
// sample count, and last the JSON line carrying the metrics of defs.
func (r *report) print(out io.Writer, defs []metricDef) error {
	for _, line := range r.header {
		fmt.Fprintln(out, "#", line)
	}
	res := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(out, "# fail_ratio %g (%d failed of %d attempted)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if rd, ok := r.readings[d.name]; ok {
				fmt.Fprintf(out, "%-40s %16.6g %-9s n=%d\n", d.name, rd.value, d.unit, rd.n)
			}
		}
	}
	for _, d := range defs {
		v := r.readings[d.name].value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		mode    = flag.String("mode", "run", "run one workload, or repeat: the repeatability self-check over all of them")
		seconds = flag.Float64("seconds", defaultWindow.Seconds(), "length of the measured window")
		traced  = flag.Int("trace", 0, "1 measures the per-layer metrics (counters, layer probes, traced window) instead of the end-to-end ones")
		sets    = flag.Int("sets", 2, "repeat mode: sets of runs to compare")
		runs    = flag.Int("runs", 3, "repeat mode: runs per set and workload")
	)
	cfg := runConfig{scale: 1, setups: 3, warmup: 10}
	flag.StringVar(&cfg.workload, "workload", "", "hash_mem, sortmerge_band, rotate_wide_tcp or sql_3way")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: relation i is generated from seed+i")
	flag.StringVar(&cfg.outDir, "out", "", "directory for raw per-op samples and the Perfetto trace (default: write nothing)")
	flag.Parse()
	switch *mode {
	case "run":
	case "repeat":
		return repeat(*sets, *runs, cfg.seed, *seconds)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	window := time.Duration(*seconds * float64(time.Second))
	cfg.window.dur = window
	defs := endToEnd
	if *traced == 1 {
		// One run's time is split between the untraced window the counters
		// are read over, the layer probes, and the traced window; set-up
		// runs once because setup_s is not reported here.
		defs = perLayer
		cfg.traced, cfg.setups = true, 1
		cfg.window.dur = window * 35 / 100
		cfg.tracedWindow.dur = window * 20 / 100
	}
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	if err := rep.print(os.Stdout, defs); err != nil {
		return err
	}
	if rep.failed > 0 {
		return errors.New("some ops failed the oracle check")
	}
	return nil
}
