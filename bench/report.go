package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// metric is one measured value with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured: the metrics BENCHMARK.json
// declares plus the workload-specific ones (serve-open's max_rate_rps and
// per-class latencies, higher percentiles where the sample count allows
// them) that only the -set and -compare tooling reads.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Wrong     int               `json:"wrong"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport(workload string, o runOpts) *report {
	return &report{Workload: workload, Seed: o.seed, Trace: o.trace, Metrics: map[string]metric{}}
}

// set records a metric. A value that is not a finite number (a quantile of
// no samples) is left out, so a declared metric that could not be measured
// fails the run instead of printing garbage.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		delete(r.Metrics, name)
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed operation: an error, a refusal or a degraded
// answer. It counts in failed (and so in fail_ratio); the first few are kept
// verbatim for the diagnostics.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// wrong records a failed answer check. It counts as a failed operation too,
// and makes the run incorrect.
func (r *report) wrong(format string, args ...any) {
	r.Wrong++
	r.fail("wrong answer: "+format, args...)
}

func (r *report) correct() bool { return r.Wrong == 0 }

// setOutcome reports the failure share of the attempts. success_ratio is
// 1 - fail_ratio, declared instead of fail_ratio because a declared metric
// must never read 0.
func (r *report) setOutcome() {
	fr := ratio(float64(r.Failed), float64(r.Attempted))
	r.set("fail_ratio", "ratio", fr)
	r.set("success_ratio", "ratio", 1-fr)
}

// setLatencies reports the median of lat with the sample count, and each
// tail percentile that has at least ten samples beyond it.
func (r *report) setLatencies(lat []float64) {
	r.set("latency_samples", "count", float64(len(lat)))
	r.set("latency_p50_s", "s", quantile(lat, 0.50))
	for _, t := range []struct {
		name string
		p    float64
		min  int // samples needed for ten beyond p
	}{{"latency_p90_s", 0.90, 100}, {"latency_p95_s", 0.95, 200}, {"latency_p99_s", 0.99, 1000}} {
		if len(lat) >= t.min {
			r.set(t.name, "s", quantile(lat, t.p))
		}
	}
}

// declared is a metric as BENCHMARK.json lists it.
type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// manifest is the part of BENCHMARK.json the benchmark reads: the metric
// lists are declared there once, and a run prints exactly those.
type manifest struct {
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []declared              `json:"end_to_end"`
	PerLayer   []declared              `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &m, nil
}

// lookup returns the declaration of a metric in either list.
func (m *manifest) lookup(name string) (declared, bool) {
	for _, list := range [][]declared{m.EndToEnd, m.PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return declared{}, false
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFor selects the declared metrics for this run: the end-to-end list
// for an untraced run, the per-layer list for a traced one. A declared
// metric the run did not produce, or produced in another unit, is an error:
// the manifest and the code must agree.
func resultFor(r *report, m *manifest) (*result, error) {
	list := m.EndToEnd
	if r.Trace {
		list = m.PerLayer
	}
	out := &result{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, d := range list {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure declared metric %s", r.Workload, d.Name)
		}
		if v.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s measured in %q but declared in %q", d.Name, v.Unit, d.Unit)
		}
		out.Metrics[d.Name] = v
	}
	return out, nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
