// Package metrics is the runtime measurement layer of the reproduction: a
// small, dependency-free registry of atomic counters, gauges and
// fixed-bucket histograms, with a Prometheus-text exposition writer.
//
// The design constraint is the one the transport itself lives under
// (§III-B: per-work-request overhead decides whether RDMA pays off): a
// metric update on the ring hot path must cost one uncontended atomic
// add — no locks, no maps, no allocation. Instruments are therefore
// looked up (and created) once, at wiring time, through the Registry;
// the hot path only touches the returned pointer. Counter and Gauge
// updates are exactly one atomic op; Histogram.Observe is two (bucket
// and sum). BenchmarkCounterInc in this package proves the per-event
// cost stays below the 10 ns budget.
//
// Values are int64 throughout — bytes, event counts, nanoseconds —
// because the instrumented code deals in integers and int64 is what a
// single machine word can update atomically. The exposition layer turns
// them into Prometheus text; the cyclobench -metrics flag renders the
// same samples as a fixed-width table instead.
package metrics

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates instrument types within a Registry.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Counter is a monotonically increasing event count. The zero value is
// usable, but hot paths should hold the pointer a Registry hands out so
// every increment is a single atomic add.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//cyclolint:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative n is a programming error; it is applied as-is
// rather than checked, to keep the hot path branch-free.
//
//cyclolint:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, resident bytes).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
//
//cyclolint:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (negative to decrease).
//
//cyclolint:hotpath
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
//
//cyclolint:hotpath
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
//
//cyclolint:hotpath
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution of int64 observations
// (latencies in nanoseconds, frame sizes in bytes). Bucket bounds are
// fixed at creation; Observe performs a binary search over them plus two
// atomic adds, and never allocates.
type Histogram struct {
	// bounds are inclusive upper bounds, strictly increasing. An
	// implicit +Inf bucket follows the last bound.
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1
	sum     atomic.Int64
}

// Observe records one value.
//
//cyclolint:hotpath
func (h *Histogram) Observe(v int64) {
	// Open-coded binary search: sort.Search's closure can escape and this
	// is the per-fragment hot path — Observe must never allocate.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bounds returns the histogram's inclusive upper bucket bounds. The slice
// is the histogram's own (immutable after construction); callers must not
// modify it.
func (h *Histogram) Bounds() []int64 { return h.bounds }

// Buckets appends the current per-bucket counts (not cumulative)
// (len(Bounds())+1 values, the last being the +Inf bucket) to dst and
// returns it. Cold-path: samplers diff successive snapshots to get
// per-window counts; the loads are not atomic as a set, which is fine for
// monitoring (each bucket is individually consistent).
func (h *Histogram) Buckets(dst []int64) []int64 {
	for i := range h.buckets {
		dst = append(dst, h.buckets[i].Load())
	}
	return dst
}

// ExponentialBounds builds count bucket bounds starting at start and
// growing by factor — the usual shape for latency and size histograms.
func ExponentialBounds(start, factor int64, count int) []int64 {
	if start <= 0 || factor < 2 || count <= 0 {
		panic(fmt.Sprintf("metrics: ExponentialBounds(%d, %d, %d)", start, factor, count))
	}
	bounds := make([]int64, count)
	b := start
	for i := range bounds {
		bounds[i] = b
		b *= factor
	}
	return bounds
}

// series is one labeled instrument within a family.
type series struct {
	labels []string // alternating key, value; rendered at exposition time
	inst   any      // *Counter, *Gauge or *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []int64 // histogram families only; all series share bounds
	series []*series
	byKey  map[string]*series
}

// Registry creates and holds instruments. Lookup is idempotent: asking
// for the same name and label set returns the same instrument, so
// restarted components keep accumulating into their counters. Lookup
// takes a lock and is meant for wiring time, not the hot path.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry the instrumented packages
// use, in the style of expvar: transport and ring metrics register here
// so a single exposition endpoint sees the whole process.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// seriesKey renders the identity of a label set.
func seriesKey(labels []string) string {
	return strings.Join(labels, "\x00")
}

// lookup finds or creates the series for name+labels, enforcing kind
// consistency.
func (r *Registry) lookup(kind Kind, name, help string, bounds []int64, labels []string) *series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s: odd label list %q", name, labels))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, byKey: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	key := seriesKey(labels)
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labels: labels}
	switch kind {
	case KindCounter:
		s.inst = &Counter{}
	case KindGauge:
		s.inst = &Gauge{}
	case KindHistogram:
		s.inst = &Histogram{bounds: f.bounds, buckets: make([]atomic.Int64, len(f.bounds)+1)}
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Counter returns the counter for name and labels (alternating key,
// value), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.lookup(KindCounter, name, help, nil, labels).inst.(*Counter)
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.lookup(KindGauge, name, help, nil, labels).inst.(*Gauge)
}

// Histogram returns the histogram for name and labels, creating it on
// first use. The bounds of the first creation win for the whole family.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...string) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: %s: histogram with no bounds", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s: bounds not increasing: %v", name, bounds))
		}
	}
	return r.lookup(KindHistogram, name, help, bounds, labels).inst.(*Histogram)
}

// Forget removes every series whose labels include key="value", so the
// exposition stops showing a component that is gone (a closed ring).
// Instruments already handed out keep working, unexposed; a later lookup
// of the same label set creates a fresh series.
func (r *Registry) Forget(key, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.order {
		f.series = slices.DeleteFunc(f.series, func(s *series) bool {
			for i := 0; i+1 < len(s.labels); i += 2 {
				if s.labels[i] == key && s.labels[i+1] == value {
					delete(f.byKey, seriesKey(s.labels))
					return true
				}
			}
			return false
		})
	}
}

// Sample is one exposed value, flattened for table rendering. Histograms
// expand into two samples, name_count and name_sum.
type Sample struct {
	// Name is the metric name (with _count/_sum suffix for histograms).
	Name string
	// Labels is the rendered label set, e.g. `node="0",dir="tx"`, empty
	// when unlabeled.
	Labels string
	// Kind is the owning family's instrument kind.
	Kind Kind
	// Value is the sampled value.
	Value int64
}

// Samples snapshots every series in registration order.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for _, f := range r.order {
		for _, s := range f.series {
			labels := renderLabels(s.labels)
			switch inst := s.inst.(type) {
			case *Counter:
				out = append(out, Sample{Name: f.name, Labels: labels, Kind: f.kind, Value: inst.Value()})
			case *Gauge:
				out = append(out, Sample{Name: f.name, Labels: labels, Kind: f.kind, Value: inst.Value()})
			case *Histogram:
				out = append(out,
					Sample{Name: f.name + "_count", Labels: labels, Kind: f.kind, Value: inst.Count()},
					Sample{Name: f.name + "_sum", Labels: labels, Kind: f.kind, Value: inst.Sum()})
			}
		}
	}
	return out
}

// renderLabels formats an alternating key/value list as k="v",...
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the Prometheus label-value escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
