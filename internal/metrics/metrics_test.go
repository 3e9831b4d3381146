package metrics

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Dec()
	g.Add(2)
	if got := g.Value(); got != 8 {
		t.Errorf("gauge = %d, want 8", got)
	}
}

func TestLookupIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", "node", "0")
	b := r.Counter("x_total", "x", "node", "0")
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	c := r.Counter("x_total", "x", "node", "1")
	if a == c {
		t.Error("different labels returned the same counter")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("registering m as gauge after counter: want panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "latency", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 5000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 5125 {
		t.Errorf("sum = %d, want 5125", got)
	}
	// Bucket occupancy: ≤10 holds 5 and 10; ≤100 holds 11 and 99; ≤1000
	// empty; +Inf holds 5000.
	want := []int64{2, 2, 0, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Errorf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestExponentialBounds(t *testing.T) {
	got := ExponentialBounds(16, 4, 4)
	want := []int64{16, 64, 256, 1024}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", got, want)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("v", "", []int64{8, 64})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j % 100))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := h.Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

// parseExposition parses Prometheus text lines into name{labels} → value.
// It is deliberately strict: any malformed line fails the test.
func parseExposition(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total", "frames", "dir", "tx").Add(3)
	r.Counter("frames_total", "frames", "dir", "rx").Add(2)
	r.Gauge("depth", "queue depth").Set(9)
	h := r.Histogram("size_bytes", "frame sizes", []int64{64, 4096})
	h.Observe(10)
	h.Observe(100)
	h.Observe(1 << 20)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE frames_total counter",
		"# TYPE depth gauge",
		"# TYPE size_bytes histogram",
		"# HELP frames_total frames",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	vals := parseExposition(t, text)
	checks := map[string]int64{
		`frames_total{dir="tx"}`:       3,
		`frames_total{dir="rx"}`:       2,
		`depth`:                        9,
		`size_bytes_bucket{le="64"}`:   1,
		`size_bytes_bucket{le="4096"}`: 2,
		`size_bytes_bucket{le="+Inf"}`: 3,
		`size_bytes_sum`:               110 + 1<<20,
		`size_bytes_count`:             3,
	}
	for k, want := range checks {
		if got, ok := vals[k]; !ok || got != want {
			t.Errorf("%s = %d (present=%v), want %d", k, got, ok, want)
		}
	}
}

func TestSamplesFlattenHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Inc()
	h := r.Histogram("b_ns", "", []int64{10})
	h.Observe(3)
	h.Observe(30)
	samples := r.Samples()
	byName := make(map[string]int64)
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	if byName["a_total"] != 1 || byName["b_ns_count"] != 2 || byName["b_ns_sum"] != 33 {
		t.Errorf("samples = %+v", samples)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "", "path", `a"b\c`).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `e_total{path="a\"b\\c"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

// TestForget: removing a label value drops exactly the series carrying
// it, across families, and a later lookup starts a fresh series.
func TestForget(t *testing.T) {
	r := NewRegistry()
	gone := r.Counter("c_total", "", "ring", "1", "node", "0")
	gone.Inc()
	r.Histogram("h_ns", "", []int64{10}, "ring", "1", "node", "0").Observe(3)
	r.Counter("c_total", "", "ring", "2", "node", "0").Add(5)
	r.Counter("c_total", "", "node", "1").Add(7)
	r.Forget("ring", "1")
	got := make(map[string]int64)
	for _, s := range r.Samples() {
		got[s.Name+"{"+s.Labels+"}"] = s.Value
	}
	want := map[string]int64{`c_total{ring="2",node="0"}`: 5, `c_total{node="1"}`: 7}
	if len(got) != len(want) {
		t.Errorf("samples after Forget = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	gone.Inc() // a handed-out instrument keeps working, unexposed
	if fresh := r.Counter("c_total", "", "ring", "1", "node", "0"); fresh == gone || fresh.Value() != 0 {
		t.Errorf("lookup after Forget returned the forgotten counter (value %d)", fresh.Value())
	}
}
