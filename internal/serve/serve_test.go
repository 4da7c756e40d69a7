package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"sagrelay/internal/scenario"
)

func tinyScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 300, NumSS: 8, NumBS: 2, SNRdB: -15, Seed: 11,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return sc
}

// bigScenario is an instance whose IAC solve in a single oversized zone
// cannot finish within a tight deadline — the cancellation workload.
func bigScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 900, NumSS: 48, NumBS: 2, SNRdB: -15, Seed: 5,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return sc
}

func waitDone(t *testing.T, j *Job, within time.Duration) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(within):
		t.Fatalf("job %s still %v after %v", j.ID, j.status().State, within)
	}
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func TestSubmitSolveAndFetchResult(t *testing.T) {
	s := newTestServer(t, Options{})
	job, err := s.Submit(SolveRequest{Scenario: tinyScenario(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 60*time.Second)

	doc, state := job.resultBytes()
	if state != StateDone {
		t.Fatalf("state = %v (err %q), want done", state, job.status().Error)
	}
	var res ResultDoc
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatalf("result not JSON: %v", err)
	}
	if !res.Feasible || res.NumCoverage == 0 || res.PTotal <= 0 {
		t.Errorf("implausible result: %+v", res)
	}
	if res.Method == "" {
		t.Error("result has no method")
	}
}

func TestCacheHitIsByteIdenticalAndFree(t *testing.T) {
	s := newTestServer(t, Options{})
	req := SolveRequest{Scenario: tinyScenario(t)}

	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first, 60*time.Second)
	firstDoc, state := first.resultBytes()
	if state != StateDone {
		t.Fatalf("first solve: %v", state)
	}

	// Same scenario, options spelled with explicit defaults: must hash to
	// the same key and be served from cache with no solver work.
	req.Options = SolveOptions{Coverage: "samc", CoveragePower: "green", Workers: 3, TimeoutMS: 99999}
	second, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, second, 5*time.Second)
	secondDoc, state := second.resultBytes()
	if state != StateDone {
		t.Fatalf("second solve: %v", state)
	}
	if !second.status().CacheHit {
		t.Error("second submit was not a cache hit")
	}
	if !bytes.Equal(firstDoc, secondDoc) {
		t.Error("cache replay is not byte-identical")
	}

	m := s.MetricsSnapshot()
	if m["cache_hits"] != 1 || m["cache_misses"] != 1 || m["solves"] != 1 {
		t.Errorf("metrics: hits=%d misses=%d solves=%d, want 1/1/1",
			m["cache_hits"], m["cache_misses"], m["solves"])
	}
	if m["jobs_completed"] != 2 {
		t.Errorf("jobs_completed = %d, want 2", m["jobs_completed"])
	}
}

func TestDifferentOptionsSplitTheCache(t *testing.T) {
	sc := tinyScenario(t)
	a := requestKey(sc, SolveOptions{})
	if b := requestKey(sc, SolveOptions{Coverage: "GAC"}); b == a {
		t.Error("coverage method did not change the request key")
	}
	if b := requestKey(sc, SolveOptions{MaxNodes: 77}); b == a {
		t.Error("solver budget did not change the request key")
	}
	if b := requestKey(sc, SolveOptions{Workers: 8, TimeoutMS: 1234}); b != a {
		t.Error("workers/timeout leaked into the request key; equivalent requests must share it")
	}
}

// TestOversizedTimeoutsDoNotWrap: a timeout_ms past the range of a
// time.Duration falls back to MaxJobTime instead of wrapping to a negative
// deadline that cancels the job before it runs, and an equally oversized
// zone_timeout_ms is clamped to the longest representable zone budget
// rather than wrapping, so every such value names one cache key.
func TestOversizedTimeoutsDoNotWrap(t *testing.T) {
	s := newTestServer(t, Options{MaxJobTime: time.Minute})
	for _, ms := range []int64{9_300_000_000_000, math.MaxInt64, 60_001} {
		if got := s.jobTimeout(SolveOptions{TimeoutMS: ms}); got != time.Minute {
			t.Errorf("jobTimeout(timeout_ms %d) = %v, want MaxJobTime 1m", ms, got)
		}
	}
	for _, ms := range []int64{60_000, 1} {
		if got, want := s.jobTimeout(SolveOptions{TimeoutMS: ms}), time.Duration(ms)*time.Millisecond; got != want {
			t.Errorf("jobTimeout(timeout_ms %d) = %v, want %v", ms, got, want)
		}
	}
	job := submitAndWait(t, s, tinyScenario(t), SolveOptions{TimeoutMS: 9_300_000_000_000})
	if st := job.status(); st.State != StateDone {
		t.Fatalf("job with timeout_ms 9.3e12 ended %v (%s), want done", st.State, st.Error)
	}

	sc := tinyScenario(t)
	huge := SolveOptions{Coverage: "IAC", ZoneTimeoutMS: 9_300_000_000_000}
	cfg, err := huge.normalized().coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ILP.TimeLimit < time.Duration(math.MaxInt64)-time.Millisecond {
		t.Errorf("zone_timeout_ms 9.3e12 gives a %v zone budget, want the longest representable", cfg.ILP.TimeLimit)
	}
	if requestKey(sc, huge) != requestKey(sc, SolveOptions{Coverage: "IAC", ZoneTimeoutMS: math.MaxInt64}) {
		t.Error("oversized zone_timeout_ms values split the cache key")
	}
	if requestKey(sc, huge) == requestKey(sc, SolveOptions{Coverage: "IAC"}) {
		t.Error("oversized zone_timeout_ms shares the default 2s budget's cache key")
	}
}

func TestDeadlineDegradesOversizedJobToHeuristic(t *testing.T) {
	// An IAC solve that cannot finish inside its 50ms deadline no longer
	// dies empty-handed: the degradation ladder abandons the exact solve and
	// answers with the SAMC heuristic, tagged degraded — and the
	// timing-dependent result stays out of the byte-identical cache.
	s := newTestServer(t, Options{})
	req := SolveRequest{
		Scenario: bigScenario(t),
		Options: SolveOptions{
			Coverage:      "IAC",
			MaxZoneSS:     64,      // one oversized zone
			MaxNodes:      1 << 30, // only the deadline can stop it
			ZoneTimeoutMS: 600_000,
			TimeoutMS:     50,
		},
	}
	start := time.Now()
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 30*time.Second)
	elapsed := time.Since(start)

	doc, state := job.resultBytes()
	if state != StateDone {
		t.Fatalf("state = %v (err %q), want done via degradation", state, job.status().Error)
	}
	var res ResultDoc
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatalf("result not JSON: %v", err)
	}
	if !res.Degraded || !strings.Contains(res.DegradedReason, "IAC -> SAMC") {
		t.Fatalf("Degraded = %v, reason %q; want SAMC fallback recorded", res.Degraded, res.DegradedReason)
	}
	if !res.Feasible {
		t.Error("degraded solution infeasible; SAMC should cover this scenario")
	}
	if elapsed > 15*time.Second {
		t.Errorf("degraded answer took %v; the fallback must stay prompt", elapsed)
	}
	m := s.MetricsSnapshot()
	if m["jobs_degraded"] != 1 {
		t.Errorf("jobs_degraded = %d, want 1", m["jobs_degraded"])
	}
	if m["cache_entries"] != 0 {
		t.Errorf("cache_entries = %d; degraded results must never be cached", m["cache_entries"])
	}
}

func TestDeadlineCancelsOversizedJobWithDegradeDisabled(t *testing.T) {
	// no_degrade restores the strict contract: a blown deadline cancels the
	// job promptly instead of answering with a heuristic.
	s := newTestServer(t, Options{})
	req := SolveRequest{
		Scenario: bigScenario(t),
		Options: SolveOptions{
			Coverage:      "IAC",
			MaxZoneSS:     64,
			MaxNodes:      1 << 30,
			ZoneTimeoutMS: 600_000,
			TimeoutMS:     50,
			NoDegrade:     true,
		},
	}
	start := time.Now()
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 30*time.Second)
	elapsed := time.Since(start)

	st := job.status()
	if st.State != StateCancelled {
		t.Fatalf("state = %v (err %q), want cancelled", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", st.Error)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v; the 50ms deadline must cut the solve short promptly", elapsed)
	}
	if m := s.MetricsSnapshot(); m["jobs_cancelled"] != 1 {
		t.Errorf("jobs_cancelled = %d, want 1", m["jobs_cancelled"])
	}
}

func TestShutdownDrainsInFlightJobsWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	s, err := NewServer(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(SolveRequest{Scenario: tinyScenario(t)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	for _, j := range jobs {
		if st := j.status(); st.State != StateDone {
			t.Errorf("job %s drained to %v (err %q), want done", j.ID, st.State, st.Error)
		}
	}
	if _, err := s.Submit(SolveRequest{Scenario: tinyScenario(t)}); err == nil {
		t.Error("submit after shutdown was accepted")
	}

	// All pool workers and job goroutines must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across shutdown: %d -> %d", before, after)
	}
}

func TestForcedShutdownCancelsLongJob(t *testing.T) {
	s, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{
		Scenario: bigScenario(t),
		Options: SolveOptions{
			Coverage: "IAC", MaxZoneSS: 64, MaxNodes: 1 << 30,
			ZoneTimeoutMS: 600_000, TimeoutMS: 600_000,
		},
	}
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Expired drain budget: Shutdown must cancel the solve and still wait
	// for it to unwind before returning.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err == nil {
		t.Error("forced shutdown should report the expired drain budget")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("forced shutdown took %v", elapsed)
	}
	if st := job.status(); st.State != StateCancelled {
		t.Errorf("job survived forced shutdown in state %v", st.State)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(SolveRequest{Scenario: tinyScenario(t)})
	if err != nil {
		t.Fatal(err)
	}

	// Async submit: 202 + job id.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}

	// Poll status, then fetch the result.
	var result []byte
	for deadline := time.Now().Add(60 * time.Second); ; {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			result = b
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("result: %d %s", resp.StatusCode, b)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
	var doc ResultDoc
	if err := json.Unmarshal(result, &doc); err != nil {
		t.Fatalf("result not JSON: %v", err)
	}
	if !doc.Feasible {
		t.Errorf("tiny scenario infeasible: %+v", doc)
	}

	// Synchronous repeat must be served from cache, byte-identical.
	resp, err = http.Post(ts.URL+"/v1/solve?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	cached, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait=1 repeat: %d %s", resp.StatusCode, cached)
	}
	if !bytes.Equal(result, cached) {
		t.Error("HTTP cache replay is not byte-identical")
	}

	// Job list includes both jobs; health and metrics answer.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 2 {
		t.Errorf("job list has %d entries, want 2", len(list.Jobs))
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d", path, resp.StatusCode)
		}
	}

	// Unknown job: 404. Malformed body: 400.
	resp, _ = http.Get(ts.URL + "/v1/jobs/j-999999")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}
}

func TestHTTPCancelEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(SolveRequest{
		Scenario: bigScenario(t),
		Options: SolveOptions{
			Coverage: "IAC", MaxZoneSS: 64, MaxNodes: 1 << 30,
			ZoneTimeoutMS: 600_000, TimeoutMS: 600_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}

	job, ok := s.Job(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	waitDone(t, job, 30*time.Second)
	if state := job.status().State; state != StateCancelled {
		t.Errorf("state after DELETE = %v, want cancelled", state)
	}
}
