package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"sagrelay/internal/admit"
	"sagrelay/internal/fault"
	"sagrelay/internal/scenario"
)

// distinctScenario generates a unique tiny instance per seed so repeated
// submissions never collapse into cache hits.
func distinctScenario(t *testing.T, seed int64) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 300, NumSS: 8, NumBS: 2, SNRdB: -15, Seed: seed,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return sc
}

func TestRateLimitPerClient(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, Admit: admit.Options{Rate: 0.001, Burst: 2}})

	// Two submissions fit the burst; the third bounces with the typed error.
	var jobs []*Job
	for i := 0; i < 2; i++ {
		job, err := s.SubmitFrom("key:alice", SolveRequest{Scenario: distinctScenario(t, int64(200+i))})
		if err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
		jobs = append(jobs, job)
	}
	_, err := s.SubmitFrom("key:alice", SolveRequest{Scenario: distinctScenario(t, 299)})
	var rl *admit.RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("third submit: err = %v, want *admit.RateLimitError", err)
	}
	if rl.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", rl.RetryAfter)
	}

	// A different client is an independent bucket.
	if _, err := s.SubmitFrom("key:bob", SolveRequest{Scenario: distinctScenario(t, 298)}); err != nil {
		t.Fatalf("other client limited by alice's bucket: %v", err)
	}
	// The anonymous/internal client (empty key) is never limited.
	if _, err := s.Submit(SolveRequest{Scenario: distinctScenario(t, 297)}); err != nil {
		t.Fatalf("empty client rate limited: %v", err)
	}

	if got := s.MetricsSnapshot()["rate_limited_total"]; got != 1 {
		t.Errorf("rate_limited_total = %d, want 1", got)
	}
	for _, j := range jobs {
		waitDone(t, j, 60*time.Second)
	}
}

// TestNonFiniteRateRefused checks that NewServer refuses a NaN or infinite
// rate, whose token bucket would refill to NaN and refuse every keyed client
// from its second request on, and that a negative rate still disables
// limiting.
func TestNonFiniteRateRefused(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s, err := NewServer(Options{Admit: admit.Options{Rate: rate}})
		if err == nil {
			s.Shutdown(context.Background())
			t.Errorf("rate %v: NewServer succeeded, want an error", rate)
		}
	}
	s := newTestServer(t, Options{Workers: 1, Admit: admit.Options{Rate: -1, Burst: 1}})
	sc := distinctScenario(t, 296)
	for i := 0; i < 3; i++ {
		job, err := s.SubmitFrom("key:alice", SolveRequest{Scenario: sc})
		if err != nil {
			t.Fatalf("submit %d at a negative rate: %v", i, err)
		}
		waitDone(t, job, 60*time.Second)
	}
}

func TestRateLimitHTTPRetryAfterAndBody(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, Admit: admit.Options{Rate: 0.001, Burst: 1}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(seed int64) *http.Response {
		body, err := json.Marshal(SolveRequest{Scenario: distinctScenario(t, seed)})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest("POST", ts.URL+"/v1/solve", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", "tenant-7")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	first := post(300)
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", first.StatusCode)
	}

	second := post(301)
	defer second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second POST = %d, want 429", second.StatusCode)
	}
	if ra := second.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response has no Retry-After header")
	}
	doc := decodeErrorEnvelope(t, second.Body)
	if doc.Error.Code != CodeRateLimited {
		t.Errorf("error.code = %q, want rate_limited", doc.Error.Code)
	}
	if doc.Error.RetryAfterS <= 0 {
		t.Errorf("error.retry_after_s = %v, want > 0", doc.Error.RetryAfterS)
	}
	if c, _ := doc.Error.Details["queue_capacity"].(float64); c <= 0 {
		t.Errorf("error.details.queue_capacity = %v, want > 0", doc.Error.Details["queue_capacity"])
	}
}

// decodeErrorEnvelope decodes an HTTP error body and requires "error" to be
// its only top-level key: the pre-v5 aliases (reason, field, queue_depth,
// queue_capacity, retry_after_ms) are gone from the wire.
func decodeErrorEnvelope(t *testing.T, body io.Reader) errorEnvelope {
	t.Helper()
	raw, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatalf("error body not JSON: %v: %s", err, raw)
	}
	for key := range top {
		if key != "error" {
			t.Errorf("error body has top-level key %q besides error: %s", key, raw)
		}
	}
	var doc errorEnvelope
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("error body not an error envelope: %v", err)
	}
	return doc
}

// TestTightDeadlineBehindBacklogAnsweredDegraded: a job whose deadline is
// shorter than the server's recent solve times, queued behind a running
// job, is accepted. It starts before its deadline, the deadline cuts its
// exact solve short, and the degrade ladder answers with the SAMC
// heuristic: done, Degraded, and kept out of the cache.
func TestTightDeadlineBehindBacklogAnsweredDegraded(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	// oversized is an IAC request only its deadline can stop: one zone of
	// 48 subscribers and no node budget.
	oversized := func(seed, timeoutMS int64) SolveRequest {
		sc, err := scenario.Generate(scenario.GenConfig{
			FieldSide: 900, NumSS: 48, NumBS: 2, SNRdB: -15, Seed: seed,
		})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		return SolveRequest{Scenario: sc, Options: SolveOptions{
			Coverage: "IAC", MaxZoneSS: 64, MaxNodes: 1 << 30,
			ZoneTimeoutMS: 600_000, TimeoutMS: timeoutMS,
		}}
	}
	// Recent traffic: three solves, one after another, that each ran out a
	// 600ms deadline. Then the backlog: a job with a 100ms deadline, still
	// running or queued when the tight job arrives.
	for i := int64(0); i < 3; i++ {
		req := oversized(40+i, 600)
		submitAndWait(t, s, req.Scenario, req.Options)
	}
	ahead, err := s.Submit(oversized(43, 100))
	if err != nil {
		t.Fatalf("backlog job: %v", err)
	}

	// 500ms is shorter than every recent solve, yet longer than the 100ms
	// job ahead of it: the job is worth starting.
	job, err := s.Submit(oversized(50, 500))
	if err != nil {
		t.Fatalf("tight-deadline job refused: %v", err)
	}
	waitDone(t, ahead, 60*time.Second)
	waitDone(t, job, 60*time.Second)
	doc, state := job.resultBytes()
	if state != StateDone {
		t.Fatalf("tight-deadline job finished %v (err %q), want done via the degrade ladder", state, job.status().Error)
	}
	var res ResultDoc
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !strings.Contains(res.DegradedReason, "IAC -> SAMC") || !res.Feasible {
		t.Fatalf("degraded = %v, reason %q, feasible %v; want a feasible SAMC fallback",
			res.Degraded, res.DegradedReason, res.Feasible)
	}
	if m := s.MetricsSnapshot(); m["cache_entries"] != 0 || m["jobs_degraded"] != 5 {
		t.Errorf("cache_entries = %d, jobs_degraded = %d; want 0 and 5 (degraded answers are never cached)",
			m["cache_entries"], m["jobs_degraded"])
	}
}

// TestAnswersUnderStormMatchUnloaded: a delay storm on every job fills a
// one-slot queue, so further submissions bounce with ErrQueueFull before
// any solver work, while the jobs the server accepted — and a job submitted
// once the storm lifts — answer exactly like an unloaded server, trace
// aside. The default pipeline has no wall-clock limits, so a loaded test
// host cannot degrade either side.
func TestAnswersUnderStormMatchUnloaded(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	armFault(t, "serve.job=delay:d=300ms")
	var accepted []*Job
	scs := map[*Job]*scenario.Scenario{}
	refused := 0
	for i := 0; i < 6; i++ {
		sc := distinctScenario(t, int64(600+i))
		job, err := s.Submit(SolveRequest{Scenario: sc})
		switch {
		case err == nil:
			accepted = append(accepted, job)
			scs[job] = sc
		case errors.Is(err, ErrQueueFull):
			refused++
		default:
			t.Fatalf("storm submit %d: %v", i, err)
		}
	}
	if refused == 0 || len(accepted) == 0 {
		t.Fatalf("degenerate storm: %d accepted, %d refused", len(accepted), refused)
	}
	for _, j := range accepted {
		waitDone(t, j, 60*time.Second)
	}
	fault.Disable()
	m := s.MetricsSnapshot()
	if m["jobs_rejected"] != int64(refused) || m["solves"] != int64(len(accepted)) {
		t.Errorf("jobs_rejected = %d, solves = %d; want %d refusals and one solve per accepted job",
			m["jobs_rejected"], m["solves"], refused)
	}

	after := submitAndWait(t, s, distinctScenario(t, 699), SolveOptions{})
	scs[after] = distinctScenario(t, 699)
	unloaded := newTestServer(t, Options{Workers: 1})
	for _, j := range append(accepted, after) {
		a, stateA := j.resultBytes()
		b, stateB := submitAndWait(t, unloaded, scs[j], SolveOptions{}).resultBytes()
		if stateA != StateDone || stateB != StateDone {
			t.Fatalf("job %s ended %v, unloaded twin %v; want done", j.ID, stateA, stateB)
		}
		if !bytes.Equal(stripTrace(t, a), stripTrace(t, b)) {
			t.Errorf("job %s answered differently from the unloaded server", j.ID)
		}
	}
}

// TestBreakerLifecycleEndToEnd drives the degrade circuit breaker through
// its full state machine at the server level: repeated degraded solves trip
// it open, an open breaker forces heuristic-first execution, the cooldown
// admits exactly one half-open probe, and a clean probe closes it again.
// Every transition is observed through the public metrics surface.
func TestBreakerLifecycleEndToEnd(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, Admit: admit.Options{
		BreakerThreshold:  0.5,
		BreakerWindow:     4,
		BreakerMinSamples: 2,
		BreakerCooldown:   time.Second,
	}})

	// Every branch-and-bound node errors: exact GAC solves fall back to the
	// SAMC heuristic and complete Degraded — the breaker's bad signal.
	armFault(t, "milp.node=error:p=1")
	for i := 0; i < 2; i++ {
		job, err := s.Submit(SolveRequest{
			Scenario: distinctScenario(t, int64(340+i)),
			Options:  SolveOptions{Coverage: "GAC"},
		})
		if err != nil {
			t.Fatalf("degrading job %d: %v", i, err)
		}
		waitDone(t, job, 60*time.Second)
		if state := job.status().State; state != StateDone {
			t.Fatalf("degrading job %d finished %v (err %q)", i, state, job.status().Error)
		}
	}

	snap := s.MetricsSnapshot()
	if snap["breaker_state"] != 1 {
		t.Fatalf("breaker_state = %d after two degraded jobs, want 1 (open)", snap["breaker_state"])
	}
	if snap["breaker_trips_total"] != 1 {
		t.Errorf("breaker_trips_total = %d, want 1", snap["breaker_trips_total"])
	}

	// Both expositions must carry the breaker gauge while it is open.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{"sag_breaker_state 1", "sag_breaker_trips_total 1", "sag_rate_limited_total "} {
		if !strings.Contains(string(prom), series) {
			t.Errorf("prometheus exposition lacks %q", series)
		}
	}

	// Open breaker, still inside the cooldown: the next exact request runs
	// heuristic-first — it completes (the heuristics dodge the armed B&B
	// fault entirely) and says so in its degraded reason.
	hfJob, err := s.Submit(SolveRequest{
		Scenario: distinctScenario(t, 350),
		Options:  SolveOptions{Coverage: "GAC"},
	})
	if err != nil {
		t.Fatalf("heuristic-first job rejected: %v", err)
	}
	waitDone(t, hfJob, 60*time.Second)
	doc, state := hfJob.resultBytes()
	if state != StateDone {
		t.Fatalf("heuristic-first job finished %v (err %q)", state, hfJob.status().Error)
	}
	var res ResultDoc
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !strings.Contains(res.DegradedReason, "heuristic-first") {
		t.Fatalf("open-breaker job not marked heuristic-first: degraded=%v reason=%q",
			res.Degraded, res.DegradedReason)
	}
	if s.MetricsSnapshot()["breaker_state"] != 1 {
		t.Fatal("heuristic-first job moved the breaker out of open")
	}

	// Heal the fault, wait out the cooldown: the next job is the half-open
	// probe. It must finish clean for the breaker to close — the default
	// heuristic pipeline is used so the probe's cleanliness depends only on
	// the healed fault, never on a B&B time budget on a slow runner.
	fault.Disable()
	time.Sleep(1100 * time.Millisecond)
	probe, err := s.Submit(SolveRequest{Scenario: distinctScenario(t, 351)})
	if err != nil {
		t.Fatalf("probe job rejected: %v", err)
	}
	waitDone(t, probe, 60*time.Second)
	pdoc, state := probe.resultBytes()
	if state != StateDone {
		t.Fatalf("probe finished %v (err %q)", state, probe.status().Error)
	}
	var pres ResultDoc
	if err := json.Unmarshal(pdoc, &pres); err != nil {
		t.Fatal(err)
	}
	if pres.Degraded {
		t.Fatalf("probe ran degraded (%q), want a clean solve", pres.DegradedReason)
	}
	snap = s.MetricsSnapshot()
	if snap["breaker_state"] != 0 {
		t.Fatalf("breaker_state = %d after clean probe, want 0 (closed)", snap["breaker_state"])
	}
	if snap["breaker_trips_total"] != 1 {
		t.Errorf("breaker_trips_total = %d after recovery, want still 1", snap["breaker_trips_total"])
	}
}

// TestJournalCorruptRecordQuarantined flips one byte inside a committed
// mid-file journal record: the reader must quarantine exactly that record
// (counting it), restore every intact job byte-identically, and re-run the
// job whose durable state was destroyed.
func TestJournalCorruptRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServer(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential solves: the journal is then strictly ordered, so j-1's done
	// record is mid-file (j-2's records follow it) and corrupting it can
	// never be mistaken for a torn tail.
	docs := map[string][]byte{}
	for i := 0; i < 2; i++ {
		job, err := s1.Submit(SolveRequest{Scenario: distinctScenario(t, int64(360+i))})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job, 60*time.Second)
		doc, state := job.resultBytes()
		if state != StateDone {
			t.Fatalf("job %s finished %v", job.ID, state)
		}
		docs[job.ID] = doc
	}
	if err := shutdownNow(t, s1, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// Corrupt j-1's done record in place: flip one byte inside its JSON so
	// the CRC32C no longer verifies.
	path := journalPath(dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	target := -1
	for i, line := range lines {
		if strings.Contains(line, `"t":"done"`) && strings.Contains(line, `"id":"j-1"`) {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatalf("no done record for j-1 in journal:\n%s", raw)
	}
	if target == len(lines)-1 || (target == len(lines)-2 && lines[len(lines)-1] == "") {
		t.Fatalf("j-1's done record is the final line; corruption would read as a torn tail")
	}
	b := []byte(lines[target])
	b[len(b)/2] ^= 0x40
	lines[target] = string(b)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s2, 30*time.Second)

	if got := s2.MetricsSnapshot()["journal_corrupt_records"]; got != 1 {
		t.Errorf("journal_corrupt_records = %d, want 1", got)
	}
	// j-2's record verified: restored terminal, byte-identical document.
	j2, ok := s2.Job("j-2")
	if !ok {
		t.Fatal("j-2 not restored")
	}
	doc2, state := j2.resultBytes()
	if state != StateDone {
		t.Fatalf("j-2 restored as %v, want done", state)
	}
	if !bytes.Equal(doc2, docs["j-2"]) {
		t.Error("j-2's restored document is not byte-identical to the original")
	}
	// j-1 lost its terminal record: it owes a re-run and must reach done
	// again with the same answer (the trace differs — it describes the new
	// solve — so compare modulo trace).
	j1, ok := s2.Job("j-1")
	if !ok {
		t.Fatal("j-1 not restored")
	}
	waitDone(t, j1, 60*time.Second)
	doc1, state := j1.resultBytes()
	if state != StateDone {
		t.Fatalf("j-1 re-ran to %v (err %q), want done", state, j1.status().Error)
	}
	if !bytes.Equal(stripTrace(t, doc1), stripTrace(t, docs["j-1"])) {
		t.Error("j-1's re-solved document differs from the original beyond its trace")
	}
}
