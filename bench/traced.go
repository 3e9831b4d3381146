package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cyclojoin/internal/trace"
)

// tracedWindow reruns the workload with the flight recorder on. The recorder
// must be enabled before anything is built (nodes, links and kernels take
// their span shards at construction), so the workload is set up afresh. The
// benchmark's own spans (bench.op ⊃ bench.partition, bench.station,
// bench.rotate, or bench.parse and bench.execute) are merged with the
// product's for the analysis. End-to-end metrics never come from this window.
func tracedWindow(w *workloadDef, in *inputs, lim limit, untracedP50 float64, outDir string, rep *report) (window, error) {
	rec := trace.Flight()
	rec.Enable(w.shardCap)
	inst, err := w.build(in)
	if err != nil {
		return window{}, err
	}
	runOps(inst, in.want, limit{ops: 2}, nil)
	rec.Reset()
	log := &spanLog{epoch: rec.Epoch()}
	win := runOps(inst, in.want, lim, log)
	// Closing ends each join entity's open wait span.
	if err := inst.close(); err != nil {
		return win, err
	}
	spans := rec.Snapshot()
	a := trace.Analyze(spans)

	ops := float64(win.ops())
	// Per-node phase time, averaged over the nodes, per op.
	perOp := func(total time.Duration) float64 { return millis(total) / nodes / ops }
	pipeline := map[trace.Phase]time.Duration{}
	coverage := 0.0
	for _, nb := range a.Nodes {
		for _, p := range []trace.Phase{trace.PhaseWait, trace.PhaseJoin, trace.PhaseStage} {
			pipeline[p] += nb.Phases[p]
		}
		coverage += nb.Coverage / float64(len(a.Nodes))
	}
	aux := map[trace.Phase]time.Duration{}
	for _, ps := range a.Aux {
		aux[ps.Phase] = ps.Total
	}
	n := win.ops()
	rep.set("trace.wait_ms_per_op", perOp(pipeline[trace.PhaseWait]), n)
	rep.set("trace.join_ms_per_op", perOp(pipeline[trace.PhaseJoin]), n)
	rep.set("trace.stage_ms_per_op", perOp(pipeline[trace.PhaseStage]), n)
	rep.set("trace.build_ms_per_op", perOp(aux[trace.PhaseBuild]), n)
	rep.set("trace.probe_ms_per_op", perOp(aux[trace.PhaseProbe]), n)
	rep.set("trace.sort_ms_per_op", perOp(aux[trace.PhaseSort]), n)
	rep.set("trace.merge_ms_per_op", perOp(aux[trace.PhaseMerge]), n)
	rep.set("trace.wr_send_ms_per_op", perOp(aux[trace.PhaseWRSend]), n)
	rep.set("trace.credit_stall_ms_per_op", perOp(aux[trace.PhaseCreditStall]), n)
	rep.set("trace.revolution_p50_ms", millis(a.RevolutionP(50)), len(a.Revolutions))
	rep.set("trace.coverage", coverage, len(a.Nodes))
	enclosing := "bench.rotate"
	if w.kind == opSQL {
		enclosing = "bench.execute"
	}
	rep.set("trace.reconcile_ratio", reconcile(spans, log.spans, enclosing), n)
	rep.set("trace.overhead_ratio", percentile(win.wallMs(), 50)/untracedP50, n)
	rep.set("trace.dropped_spans", float64(rec.Dropped()), len(spans))

	if outDir != "" {
		path := filepath.Join(outDir, w.name+".perfetto.json")
		if err := writePerfetto(path, rec.Tracks(), spans, log.spans); err != nil {
			return win, err
		}
	}
	return win, nil
}

// reconcile is ROADMAP's "the layers must sum": the share of the enclosing
// bench spans (the time the benchmark spent inside Rotate, or Execute) that
// the join entities' wait, join and stage spans account for, averaged over
// the nodes. Product spans are clipped to the enclosing spans, because a join
// entity also waits while the ring idles between revolutions.
func reconcile(spans []trace.Span, own []benchSpan, enclosing string) float64 {
	type interval struct{ lo, hi int64 }
	var ivs []interval
	var total int64
	for _, b := range own {
		if b.name == enclosing {
			ivs = append(ivs, interval{int64(b.start), int64(b.start + b.dur)})
			total += int64(b.dur)
		}
	}
	if total == 0 {
		return 0
	}
	var covered int64
	for _, sp := range spans {
		if sp.Node < 0 || (sp.Phase != trace.PhaseWait && sp.Phase != trace.PhaseJoin && sp.Phase != trace.PhaseStage) {
			continue
		}
		// ivs is in start order and does not overlap: ops run one at a time.
		for i := sort.Search(len(ivs), func(i int) bool { return ivs[i].hi > sp.Start }); i < len(ivs) && ivs[i].lo < sp.End(); i++ {
			covered += min(sp.End(), ivs[i].hi) - max(sp.Start, ivs[i].lo)
		}
	}
	return float64(covered) / float64(total) / nodes
}

// benchPID groups the benchmark's own spans in the Perfetto UI, clear of the
// node ids and of the exporter's transport pid.
const benchPID = 10000

// writePerfetto writes the product's spans through the product's exporter and
// splices the benchmark's spans into the same trace-event array.
func writePerfetto(path string, tracks []trace.TrackInfo, spans []trace.Span, own []benchSpan) error {
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, tracks, spans); err != nil {
		return err
	}
	const trailer = "\n]}\n"
	body, ok := bytes.CutSuffix(buf.Bytes(), []byte(trailer))
	if !ok {
		return fmt.Errorf("perfetto export does not end in %q", trailer)
	}
	out := bytes.NewBuffer(body)
	fmt.Fprintf(out, ",\n"+`{"name":"process_name","ph":"M","pid":%d,"args":{"name":"bench"}}`, benchPID)
	micros := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, b := range own {
		fmt.Fprintf(out, ",\n"+`{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":0,"args":{"op":%d}}`,
			b.name, micros(b.start), micros(b.dur), benchPID, b.op)
	}
	out.WriteString(trailer)
	return os.WriteFile(path, out.Bytes(), 0o644)
}
