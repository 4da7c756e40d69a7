package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// SecondsBuckets are the default latency buckets (seconds), spanning the
// sub-millisecond zone solves up to the 2-minute default job deadline.
var SecondsBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120,
}

// CountBuckets are the default effort buckets (branch-and-bound nodes,
// simplex pivots): decade-ish steps from trivial to the node-cap default.
var CountBuckets = []float64{
	1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 200000,
}

// Histogram is a fixed-bucket histogram with atomic counters. Observe is
// allocation-free and safe for concurrent use. Buckets follow the
// Prometheus convention: counts[i] holds observations v <= bounds[i], and
// the final slot holds the +Inf overflow.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Int64 // len(bounds)+1; last is +Inf
	count      atomic.Int64
	sumBits    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values so far.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// metric is one registry entry: a histogram, or a counter/gauge read
// through a closure at exposition time (so the source atomics stay the
// single source of truth and the JSON and Prometheus paths cannot drift).
type metric struct {
	kind string // "counter", "gauge" or "histogram"
	name string
	help string
	fn   func() int64
	hist *Histogram
}

// Registry holds a set of metrics and renders them in the Prometheus text
// exposition format. The process-wide solver metrics live on Default;
// subsystems with per-instance counters (the solve service) build their
// own Registry and concatenate both at exposition time.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// Default is the process-wide registry: solver packages register their
// histograms here at init.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// NewHistogram creates a histogram with the given sorted bucket upper
// bounds and registers it. Bounds must be strictly increasing; the +Inf
// bucket is implicit.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not increasing at %d", name, i))
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.mu.Lock()
	r.metrics = append(r.metrics, metric{kind: "histogram", name: name, help: help, hist: h})
	r.mu.Unlock()
	return h
}

// Counter registers a monotonically increasing value read through fn at
// exposition time.
func (r *Registry) Counter(name, help string, fn func() int64) {
	r.mu.Lock()
	r.metrics = append(r.metrics, metric{kind: "counter", name: name, help: help, fn: fn})
	r.mu.Unlock()
}

// Gauge registers a point-in-time value read through fn at exposition time.
func (r *Registry) Gauge(name, help string, fn func() int64) {
	r.mu.Lock()
	r.metrics = append(r.metrics, metric{kind: "gauge", name: name, help: help, fn: fn})
	r.mu.Unlock()
}

// Histograms returns the registered histograms (for tests).
func (r *Registry) Histograms() []*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Histogram
	for _, m := range r.metrics {
		if m.hist != nil {
			out = append(out, m.hist)
		}
	}
	return out
}

// Each calls fn with the name and current value of every registered counter
// and gauge, in registration order; histograms are skipped.
func (r *Registry) Each(fn func(name string, value int64)) {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		if m.fn != nil {
			fn(m.name, m.fn())
		}
	}
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), metrics sorted by name, histogram
// buckets cumulative.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		switch m.kind {
		case "counter", "gauge":
			fmt.Fprintf(&b, "%s %d\n", m.name, m.fn())
		case "histogram":
			h := m.hist
			cum := int64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatBound(bound), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
