package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"sagrelay/internal/scenario"
)

// fetchMetricsJSON decodes /metrics preserving key order.
func fetchMetricsJSON(t *testing.T, base string) (map[string]json.Number, []string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]json.Number)
	var order []string
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("metrics document is not a JSON object: %v %v", tok, err)
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		key := keyTok.(string)
		order = append(order, key)
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		if n, ok := v.(json.Number); ok {
			vals[key] = n
		} else if s, ok := v.(string); ok && key == "schema" {
			vals[key] = json.Number(strconv.Quote(s)) // carry the schema through
		}
	}
	return vals, order
}

// fetchMetricsProm returns the sample value of every un-labelled Prometheus
// series in /metrics?format=prometheus.
func fetchMetricsProm(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("GET /metrics?format=prometheus: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q, want exactly %q", ct, "text/plain; version=0.0.4; charset=utf-8")
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[fields[0]] = v
	}
	return out
}

// metricsKeysV10 is the sagmetrics/10 wire contract: every key of the /metrics
// JSON document, in order. Adding, renaming or reordering a key changes the
// schema and must bump metricsSchema.
var metricsKeysV10 = []string{
	"schema",
	"jobs_accepted", "jobs_rejected", "jobs_completed", "jobs_failed", "jobs_cancelled",
	"jobs_panicked", "jobs_degraded", "rate_limited_total",
	"batches_total", "batch_items_total",
	"cache_hits", "cache_misses", "cache_entries",
	"incr_resolves", "incr_zones_reused_total", "incr_zones_resolved_total", "zone_cache_entries",
	"solve_micros_total", "solves", "bb_nodes_total", "panics_recovered",
	"solver_retries_total", "solver_fallbacks_total", "faults_injected_total",
	"journal_errors", "journal_restored_jobs", "journal_replayed_jobs", "journal_corrupt_records",
	"journal_fsyncs_total",
	"job_queue_depth", "flight_records", "progress_streams_total",
}

// TestMetricsExpositionsAgree asserts the JSON document and the Prometheus
// exposition report identical values for every counter: both read the same
// atomics, so any disagreement is a wiring bug.
func TestMetricsExpositionsAgree(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Drive some real traffic so the counters are non-trivial.
	job := submitAndWait(t, s, tinyScenario(t), SolveOptions{})
	if job.status().State != StateDone {
		t.Fatalf("solve job ended %v", job.status().State)
	}
	job2 := submitAndWait(t, s, tinyScenario(t), SolveOptions{}) // cache hit
	if job2.status().State != StateDone {
		t.Fatalf("cache-hit job ended %v", job2.status().State)
	}

	// The solved job's flight record lands just after its done channel
	// closes; let it settle so both expositions read the same value.
	waitMetric(t, s, "flight_records", 2)
	jsonVals, order := fetchMetricsJSON(t, ts.URL)
	promVals := fetchMetricsProm(t, ts.URL)

	if !slices.Equal(order, metricsKeysV10) {
		t.Fatalf("metrics key order =\n%v\nwant the %s order\n%v", order, metricsSchema, metricsKeysV10)
	}
	if got := jsonVals["schema"]; got != json.Number(strconv.Quote(metricsSchema)) {
		t.Errorf("schema = %s, want %q", got, metricsSchema)
	}

	checked := 0
	for key, jv := range jsonVals {
		if key == "schema" {
			continue
		}
		want, err := jv.Float64()
		if err != nil {
			t.Fatalf("non-numeric metric %q = %s", key, jv)
		}
		got, ok := promVals["sag_"+key]
		if !ok {
			t.Errorf("JSON key %q has no sag_%s series in the Prometheus exposition", key, key)
			continue
		}
		if got != want {
			t.Errorf("metric %q: JSON %v, Prometheus %v", key, want, got)
		}
		checked++
	}
	if checked < 18 {
		t.Fatalf("only %d counters compared; the JSON document shrank", checked)
	}
	if jsonVals["jobs_completed"] == "0" {
		t.Error("jobs_completed is zero after two completed jobs")
	}
	// The sagmetrics/6 introspection keys must be present in both expositions.
	for _, key := range []string{"job_queue_depth", "flight_records", "progress_streams_total"} {
		if _, ok := jsonVals[key]; !ok {
			t.Errorf("JSON document is missing introspection key %q", key)
		}
		if _, ok := promVals["sag_"+key]; !ok {
			t.Errorf("Prometheus exposition is missing sag_%s", key)
		}
	}
}

// TestMetricsPrometheusHistograms asserts the exposition carries the solver
// and service histograms, with the grammar ci.sh checks.
func TestMetricsPrometheusHistograms(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job := submitAndWait(t, s, tinyScenario(t), SolveOptions{})
	if job.status().State != StateDone {
		t.Fatalf("solve job ended %v", job.status().State)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// One +Inf bucket line per histogram: count them to know how many
	// histograms the exposition carries.
	infBuckets := regexp.MustCompile(`(?m)^[a-z_]+_bucket\{le="\+Inf"\} \d+$`).FindAllString(text, -1)
	if len(infBuckets) < 5 {
		t.Fatalf("exposition has %d histograms, want >= 5:\n%v", len(infBuckets), infBuckets)
	}
	for _, name := range []string{
		"sag_job_latency_seconds", "sag_queue_wait_seconds",
		"sag_zone_solve_seconds", "sag_bb_nodes_per_solve", "sag_lp_pivots_per_solve",
	} {
		if !strings.Contains(text, "# TYPE "+name+" histogram") {
			t.Errorf("exposition lacks histogram %s", name)
		}
	}
	// Job latency must have recorded the solve above.
	if m := regexp.MustCompile(`(?m)^sag_job_latency_seconds_count (\d+)$`).FindStringSubmatch(text); m == nil || m[1] == "0" {
		t.Error("sag_job_latency_seconds_count missing or zero after a solve")
	}

	// promtool-style line grammar over the whole exposition.
	lineRE := regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.\-]+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \+Inf|)$`)
	for _, line := range strings.Split(text, "\n") {
		if !lineRE.MatchString(line) {
			t.Errorf("exposition line fails grammar: %q", line)
		}
	}
}

func TestMetricsUnknownFormatRejected(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics?format=yaml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=yaml -> %d, want 400", resp.StatusCode)
	}
}

// TestResultDocCarriesTrace asserts the served result document embeds the
// solve's span tree: a job root over the pipeline stages, each with a
// non-zero duration — that a cache hit replays the same trace bytes, and that
// a solve sharing its relay set with an earlier one still traces every stage.
func TestResultDocCarriesTrace(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})

	job := submitAndWait(t, s, tinyScenario(t), SolveOptions{})
	doc := requireStageTrace(t, job)

	// Cache hit: byte-identical replay, original trace included.
	job2 := submitAndWait(t, s, tinyScenario(t), SolveOptions{})
	doc2, state2 := job2.resultBytes()
	if state2 != StateDone {
		t.Fatalf("cache-hit job ended %v", state2)
	}
	if string(doc) != string(doc2) {
		t.Error("cache hit served different bytes than the original solve")
	}

	// A solve that differs only in its coverage power stage has the same
	// relay set as the first; its trace must still time every stage.
	requireStageTrace(t, submitAndWait(t, s, tinyScenario(t), SolveOptions{CoveragePower: "baseline"}))
}

// requireStageTrace checks that a finished job's result document carries a
// trace rooted at the job, with a positive-length span for every pipeline
// stage and at least one zone span, and returns the document.
func requireStageTrace(t *testing.T, job *Job) []byte {
	t.Helper()
	doc, state := job.resultBytes()
	if state != StateDone {
		t.Fatalf("job ended %v", state)
	}
	var res ResultDoc
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("result document has no trace")
	}
	if res.Trace.Name != "job" {
		t.Fatalf("trace root = %q, want job", res.Trace.Name)
	}
	if res.Trace.Attrs["job_id"] != job.ID {
		t.Errorf("trace job_id = %q, want %q", res.Trace.Attrs["job_id"], job.ID)
	}
	stages := []string{"solve", "coverage", "coverage_power", "connectivity", "connectivity_power"}
	for _, stage := range stages {
		sp := res.Trace.Find(stage)
		if sp == nil {
			t.Errorf("trace lacks a %q span", stage)
			continue
		}
		if sp.DurNS <= 0 {
			t.Errorf("stage %q has non-positive duration %d", stage, sp.DurNS)
		}
	}
	if res.Trace.Count("zone") == 0 {
		t.Error("trace has no zone spans")
	}
	return doc
}

// submitAndWait submits one request and blocks until its job settles.
func submitAndWait(t *testing.T, s *Server, sc *scenario.Scenario, opts SolveOptions) *Job {
	t.Helper()
	job, err := s.Submit(SolveRequest{Scenario: sc, Options: opts})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, job, 60*time.Second)
	return job
}

// waitMetric waits up to 10s for the /metrics series key to read want.
func waitMetric(t *testing.T, s *Server, key string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := s.MetricsSnapshot()[key]
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", key, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
