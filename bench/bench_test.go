package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"cyclojoin/internal/join"
	"cyclojoin/internal/join/nested"
	"cyclojoin/internal/relation"
	"cyclojoin/internal/workload"
)

// nestedJoin joins r with s by nested loops, the product's reference
// algorithm, emitting into c.
func nestedJoin(t *testing.T, r, s *relation.Relation, p join.Predicate, c join.Collector) {
	t.Helper()
	st, err := nested.Join{}.SetupStationary(s, p, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Join(r, c); err != nil {
		t.Fatal(err)
	}
}

func TestOracleAgainstNestedLoops(t *testing.T) {
	const tuples, domain = 2000, 500
	var rels []*relation.Relation
	for i, name := range []string{"a", "b", "c"} {
		rel, err := workload.Generate(workload.Spec{Name: name, Tuples: tuples, PayloadWidth: 4, KeyDomain: domain, Seed: int64(7 + i)})
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	a, b, c := rels[0], rels[1], rels[2]

	var equi join.Counter
	nestedJoin(t, a, b, join.Equi{}, &equi)
	if got := equiMatches(domain, a, b); got != equi.Count() || got == 0 {
		t.Errorf("equi oracle says %d, nested loops %d", got, equi.Count())
	}

	for _, width := range []uint64{0, 2, 7} {
		var band join.Counter
		nestedJoin(t, a, b, join.Band{Width: width}, &band)
		if got := bandMatches(a, b, width); got != band.Count() || got == 0 {
			t.Errorf("band(%d) oracle says %d, nested loops %d", width, got, band.Count())
		}
	}

	mid := join.NewMaterializer("ab", 4, 4)
	nestedJoin(t, a, b, join.Equi{}, mid)
	var three join.Counter
	nestedJoin(t, mid.Result(), c, join.Equi{}, &three)
	if got := equiMatches(domain, a, b, c); got != three.Count() || got == 0 {
		t.Errorf("3-way oracle says %d, nested loops %d", got, three.Count())
	}
}

// TestSmoke runs every workload at 1/50 of its size: a few ops, and unless
// -short the layer probes and the traced window, and checks that every metric
// the tables name comes out, finite and with a unit.
func TestSmoke(t *testing.T) {
	probeReps = 2
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{
				workload: w.name, seed: 1, scale: 50, setups: 1, warmup: 1,
				window: limit{ops: 3}, traced: !testing.Short(), tracedWindow: limit{ops: 3},
				outDir: t.TempDir(),
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted < 4 {
				t.Errorf("%d of %d ops failed the oracle check", rep.failed, rep.attempted)
			}
			defs := endToEnd
			if cfg.traced {
				defs = append(defs[:len(defs):len(defs)], perLayer...)
			}
			for _, d := range defs {
				rd, ok := rep.readings[d.name]
				sqlOnly := strings.HasPrefix(d.name, "query.") || d.name == "relation.concat_ms"
				switch {
				case !ok && sqlOnly && w.kind != opSQL:
				case !ok:
					t.Errorf("metric %s was not measured", d.name)
				case math.IsNaN(rd.value) || math.IsInf(rd.value, 0) || rd.value < 0 || d.unit == "":
					t.Errorf("metric %s = %v %q", d.name, rd.value, d.unit)
				}
			}
			for _, d := range endToEnd {
				if rep.readings[d.name].value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.name)
				}
			}
			if !cfg.traced {
				return
			}
			// The paper's split must add up to the op: station + rotate +
			// overhead against the mean op time behind tuples_per_s.
			in, err := w.generate(cfg.seed, cfg.scale)
			if err != nil {
				t.Fatal(err)
			}
			opMs := float64(in.tuplesPerOp) / rep.readings["tuples_per_s"].value * 1e3
			sum := rep.readings["core.station_ms"].value + rep.readings["core.rotate_ms"].value + rep.readings["core.overhead_ms"].value
			if math.Abs(sum-opMs) > 0.02*opMs {
				t.Errorf("core.station+rotate+overhead = %.3f ms, mean op %.3f ms", sum, opMs)
			}
			if d := rep.readings["trace.dropped_spans"].value; d != 0 {
				t.Errorf("%v spans dropped in the traced window", d)
			}
			for _, name := range []string{w.name + ".samples.json", w.name + ".perfetto.json"} {
				if _, err := os.Stat(cfg.outDir + "/" + name); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

func TestPrintEndsWithTheContractLine(t *testing.T) {
	rep := &report{readings: map[string]reading{}, attempted: 5}
	for _, d := range endToEnd {
		rep.set(d.name, 1.5, 3)
	}
	var out bytes.Buffer
	if err := rep.print(&out, endToEnd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           *bool
		Attempted, Failed *int
		Metrics           map[string]jsonMetric
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted != 5 || res.Failed == nil {
		t.Errorf("last line %q lacks correct, attempted or failed", lines[len(lines)-1])
	}
	if len(res.Metrics) != len(endToEnd) || res.Metrics["setup_s"] != (jsonMetric{Value: 1.5, Unit: "s"}) {
		t.Errorf("metrics = %v", res.Metrics)
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables in main.go and
// workloads.go from drifting apart: the driver reads the former, the binary
// prints from the latter.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside bench/")
	}
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var manifest struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Paths) != 1 || manifest.Paths[0] != "bench" {
		t.Errorf("paths = %v", manifest.Paths)
	}
	if got := time.Duration(manifest.RunSeconds) * time.Second; got != defaultWindow {
		t.Errorf("run_seconds = %v, the binary defaults to %v", got, defaultWindow)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the binary", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m := manifest.Workloads[i]; m.Name != w.name || m.Why != w.why {
			t.Errorf("workload %d: manifest has %q (%q), binary %q (%q)", i, m.Name, m.Why, w.name, w.why)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the manifest, %d in the binary", len(got), kind, len(want))
		}
		for i, d := range want {
			m := got[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (bounded && m.Bound != d.bound) {
				t.Errorf("%s metric %d: manifest has %+v, binary %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd, true)
	check("per_layer", manifest.PerLayer, perLayer, false)
}
