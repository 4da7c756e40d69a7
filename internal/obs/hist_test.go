package obs

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+5+10+50+1000; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// le-boundary convention: v <= bound lands in that bucket.
	want := []int64{2, 2, 1, 1} // (<=1)=0.5,1; (<=10)=5,10; (<=100)=50; +Inf=1000
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("c", "", []float64{10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if h.Sum() != 8000 {
		t.Fatalf("sum = %v, want 8000", h.Sum())
	}
}

func TestWritePrometheusGrammar(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("sag_test_seconds", "how long things took", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.Counter("sag_test_total", "a counter", func() int64 { return 42 })
	r.Gauge("sag_test_gauge", "a gauge", func() int64 { return -3 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// Every line must match the text-exposition grammar (same shape ci.sh
	// checks): HELP/TYPE comments or name{labels} value.
	line := regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9.e+\-]+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? [+-]?Inf|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? NaN)$`)
	for _, ln := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !line.MatchString(ln) {
			t.Fatalf("line fails exposition grammar: %q", ln)
		}
	}

	for _, want := range []string{
		`# TYPE sag_test_seconds histogram`,
		`sag_test_seconds_bucket{le="0.1"} 1`,
		`sag_test_seconds_bucket{le="1"} 2`,
		`sag_test_seconds_bucket{le="+Inf"} 3`,
		`sag_test_seconds_sum 5.55`,
		`sag_test_seconds_count 3`,
		`# TYPE sag_test_total counter`,
		`sag_test_total 42`,
		`# TYPE sag_test_gauge gauge`,
		`sag_test_gauge -3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Metrics must come out sorted by name for a stable diffable exposition.
	idxGauge := strings.Index(out, "# HELP sag_test_gauge")
	idxSeconds := strings.Index(out, "# HELP sag_test_seconds")
	idxTotal := strings.Index(out, "# HELP sag_test_total")
	if !(idxGauge < idxSeconds && idxSeconds < idxTotal) {
		t.Fatalf("metrics not sorted by name:\n%s", out)
	}

	// Each walks counters and gauges in registration order, not name order,
	// and skips histograms.
	var each []string
	r.Each(func(name string, v int64) { each = append(each, fmt.Sprintf("%s=%d", name, v)) })
	if got := strings.Join(each, " "); got != "sag_test_total=42 sag_test_gauge=-3" {
		t.Errorf("Each = %q, want registration order without the histogram", got)
	}
}

func TestNewHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	NewRegistry().NewHistogram("bad", "", []float64{1, 1})
}

func TestDefaultRegistryHasPipelineHistograms(t *testing.T) {
	// The solver packages register on Default at init; this test only runs
	// in package obs so it just checks the registry machinery is shared.
	if Default == nil {
		t.Fatal("Default registry nil")
	}
}
