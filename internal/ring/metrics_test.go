package ring

import (
	"strconv"
	"strings"
	"testing"

	"cyclojoin/internal/metrics"
)

// scrape renders the default registry in Prometheus text format and
// parses it back into name{labels} → value, failing the test on any
// malformed line — this is the same page cmd/roundabout serves at
// /metrics.
func scrape(t *testing.T) map[string]int64 {
	t.Helper()
	var b strings.Builder
	if err := metrics.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		key := line[:i]
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate series %q in exposition", key)
		}
		out[key] = v
	}
	return out
}

// TestMetricsIncreaseAcrossRevolution runs a TCP-linked ring twice and
// checks that the /metrics exposition parses and that the hot-path
// counters are monotonically nondecreasing, with frame, byte and retire
// counters strictly increasing across each revolution.
func TestMetricsIncreaseAcrossRevolution(t *testing.T) {
	const nodes = 3
	r, _ := newRecorderRing(t, nodes, Config{BufferBytes: 1 << 16}, TCPLinks())
	frags := buildFrags(t, nodes, 300)

	before := scrape(t)
	for rev := 0; rev < 2; rev++ {
		if err := r.Run(perNode(frags)); err != nil {
			t.Fatal(err)
		}
		after := scrape(t)
		// Counters never move backwards.
		for key, v := range before {
			if strings.Contains(key, "_depth") {
				continue // gauges may legitimately fall back to zero
			}
			if after[key] < v {
				t.Errorf("revolution %d: %s went backwards: %d → %d", rev, key, v, after[key])
			}
		}
		// One revolution moves every fragment over every TCP link and
		// retires it somewhere: frames, bytes and retires must grow.
		strictly := []string{
			`tcplink_frames_total{dir="tx"}`,
			`tcplink_frames_total{dir="rx"}`,
			`tcplink_bytes_total{dir="tx"}`,
			`tcplink_completions_total`,
		}
		for i := 0; i < nodes; i++ {
			l := `{ring="` + r.label + `",node="` + strconv.Itoa(i) + `"}`
			strictly = append(strictly,
				`ring_bytes_in_total`+l,
				`ring_bytes_out_total`+l,
				`ring_fragments_processed_total`+l,
				`ring_fragments_retired_total`+l,
			)
		}
		for _, key := range strictly {
			if after[key] <= before[key] {
				t.Errorf("revolution %d: %s did not increase: %d → %d", rev, key, before[key], after[key])
			}
		}
		before = after
	}
}

// ringSums sums each ring_* sample carrying ring's label by name.
func ringSums(samples []metrics.Sample, ring string) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		if strings.HasPrefix(s.Labels, `ring="`+ring+`",`) {
			out[s.Name] += s.Value
		}
	}
	return out
}

// statSums sums a Stats snapshot into the registry's sample names.
func statSums(rows []NodeStats) map[string]int64 {
	out := make(map[string]int64)
	for _, st := range rows {
		out["ring_bytes_in_total"] += st.BytesIn
		out["ring_bytes_out_total"] += st.BytesOut
		out["ring_fragments_processed_total"] += int64(st.Processed)
		out["ring_fragments_retired_total"] += int64(st.Retired)
		out["ring_materializes_total"] += st.Materializes
		out["ring_link_failures_total"] += st.LinkFailures
		out["ring_wait_ns_sum"] += int64(st.WaitTime)
		out["ring_process_ns_sum"] += int64(st.ProcessTime)
		for _, c := range st.HopCounts {
			out["ring_hop_ns_count"] += c
		}
	}
	return out
}

// TestRegistryMatchesStats runs two rings in one process: each ring's
// {ring=…} samples in the registry are the sums of its own Stats rows, and
// Close removes them. A hop's last count lands just after the frame that
// lets Run return, so the registry read is bracketed by two Stats reads.
func TestRegistryMatchesStats(t *testing.T) {
	a, _ := newRecorderRing(t, 3, Config{}, nil)
	b, _ := newRecorderRing(t, 2, Config{}, nil)
	if a.label == b.label {
		t.Fatalf("two rings share the label %q", a.label)
	}
	if err := a.Run(perNode(buildFrags(t, 3, 300))); err != nil {
		t.Fatal(err)
	}
	for rev := 0; rev < 2; rev++ {
		if err := b.Run(perNode(buildFrags(t, 2, 500))); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []*Ring{a, b} {
		lo := statSums(r.Stats(nil))
		reg := ringSums(metrics.Default().Samples(), r.label)
		hi := statSums(r.Stats(nil))
		if lo["ring_fragments_processed_total"] == 0 {
			t.Fatalf("ring %s processed nothing", r.label)
		}
		for name, v := range reg {
			if _, ok := lo[name]; ok && (v < lo[name] || v > hi[name]) {
				t.Errorf("ring %s: registry %s = %d, Stats reads %d … %d", r.label, name, v, lo[name], hi[name])
			}
		}
		for name := range lo {
			if _, ok := reg[name]; !ok {
				t.Errorf("ring %s: no %s series in the registry", r.label, name)
			}
		}
	}
	for _, r := range []*Ring{a, b} {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if left := ringSums(metrics.Default().Samples(), r.label); len(left) != 0 {
			t.Errorf("ring %s closed, the registry still has %v", r.label, left)
		}
	}
}
