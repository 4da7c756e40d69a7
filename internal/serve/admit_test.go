package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"sagrelay/internal/admit"
	"sagrelay/internal/fault"
	"sagrelay/internal/scenario"
)

// distinctScenario generates a unique tiny instance per seed so repeated
// admission-test submissions never collapse into cache hits (cache hits
// bypass shedding by design).
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

func TestForcedShedIsTypedCountedAndA503(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	armFault(t, "admit.shed=error:n=1")

	_, err := s.Submit(SolveRequest{Scenario: distinctScenario(t, 310)})
	var shed *admit.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err = %v, want *admit.ShedError", err)
	}
	if !strings.Contains(shed.Reason, "fault injection") {
		t.Errorf("Reason = %q, want a fault-injection marker", shed.Reason)
	}
	if got := s.MetricsSnapshot()["jobs_shed_total"]; got != 1 {
		t.Errorf("jobs_shed_total = %d, want 1", got)
	}

	// The HTTP mapping: a shed is a 503 with Retry-After and the overload body.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	armFault(t, "admit.shed=error:n=1")
	body, _ := json.Marshal(SolveRequest{Scenario: distinctScenario(t, 311)})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed POST = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 shed response has no Retry-After header")
	}
	if doc := decodeErrorEnvelope(t, resp.Body); doc.Error.Code != CodeShed {
		t.Errorf("error.code = %q, want shed", doc.Error.Code)
	}

	// A seeded shed storm is a function of (spec, seed, submission order),
	// not of timing: two fresh servers shed exactly the same indices.
	if first, second := shedStormFingerprint(t), shedStormFingerprint(t); first != second {
		t.Errorf("shed pattern not deterministic: run 1 shed [%s], run 2 shed [%s]", first, second)
	}

	// Shed jobs never reach the solver, and once the storm lifts the same
	// server answers exactly like an unloaded one (modulo the trace).
	gac := SolveOptions{Coverage: "GAC"}
	before := s.MetricsSnapshot()
	armFault(t, "admit.shed=error:p=1")
	for i := 0; i < 6; i++ {
		_, err := s.Submit(SolveRequest{Scenario: distinctScenario(t, int64(600+i)), Options: gac})
		if !errors.As(err, &shed) {
			t.Fatalf("submit %d under p=1 shedding: err = %v, want *admit.ShedError", i, err)
		}
	}
	fault.Disable()
	after := s.MetricsSnapshot()
	for _, key := range []string{"bb_nodes_total", "solves"} {
		if d := after[key] - before[key]; d != 0 {
			t.Errorf("shed jobs moved %s by %d, want 0", key, d)
		}
	}
	// The default pipeline has no wall-clock limits, so a loaded test host
	// cannot degrade either answer.
	stormed := submitAndWait(t, s, distinctScenario(t, 699), SolveOptions{})
	unloaded := submitAndWait(t, newTestServer(t, Options{Workers: 2}), distinctScenario(t, 699), SolveOptions{})
	a, stateA := stormed.resultBytes()
	b, stateB := unloaded.resultBytes()
	if stateA != StateDone || stateB != StateDone {
		t.Fatalf("post-storm solves ended %v and %v, want done", stateA, stateB)
	}
	if !bytes.Equal(stripTrace(t, a), stripTrace(t, b)) {
		t.Error("post-storm result differs from the unloaded server's")
	}
}

// shedStormFingerprint runs a seeded p=0.4 admit.shed storm of 24 distinct
// submissions on a fresh server, waits out the accepted jobs, and returns
// the shed submission indices, e.g. "2,3,7,11".
func shedStormFingerprint(t *testing.T) string {
	t.Helper()
	s := newTestServer(t, Options{Workers: 2})
	armFault(t, "admit.shed=error:p=0.4")
	defer fault.Disable()
	var shed []string
	var jobs []*Job
	for i := 0; i < 24; i++ {
		job, err := s.Submit(SolveRequest{Scenario: distinctScenario(t, int64(500+i))})
		var se *admit.ShedError
		switch {
		case err == nil:
			jobs = append(jobs, job)
		case errors.As(err, &se):
			shed = append(shed, strconv.Itoa(i))
		default:
			t.Fatalf("storm submit %d: %v", i, err)
		}
	}
	if len(shed) == 0 || len(jobs) == 0 {
		t.Fatalf("degenerate storm: %d shed, %d accepted", len(shed), len(jobs))
	}
	if got := s.MetricsSnapshot()["jobs_shed_total"]; got != int64(len(shed)) {
		t.Errorf("jobs_shed_total = %d, want %d", got, len(shed))
	}
	for _, j := range jobs {
		waitDone(t, j, 60*time.Second)
	}
	return strings.Join(shed, ",")
}

func TestOrganicShedOnImpossibleDeadline(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})

	// Warm the cost model past its minimum sample count with real exact
	// solves — GAC branch-and-bound always costs multiple milliseconds on
	// this size, so the learned mean safely dwarfs the 1ms deadline below.
	for i := 0; i < 3; i++ {
		job, err := s.Submit(SolveRequest{
			Scenario: distinctScenario(t, int64(320+i)),
			Options:  SolveOptions{Coverage: "GAC"},
		})
		if err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
		waitDone(t, job, 60*time.Second)
	}

	// A 1ms deadline cannot cover any real solve of this size: shed at the
	// door, with the estimates that justified the decision attached.
	_, err := s.Submit(SolveRequest{
		Scenario: distinctScenario(t, 330),
		Options:  SolveOptions{Coverage: "GAC", TimeoutMS: 1},
	})
	var shed *admit.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err = %v, want *admit.ShedError", err)
	}
	if shed.EstSolve <= 0 {
		t.Errorf("EstSolve = %v, want > 0", shed.EstSolve)
	}
	if shed.Deadline != time.Millisecond {
		t.Errorf("Deadline = %v, want 1ms", shed.Deadline)
	}
	if shed.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", shed.RetryAfter)
	}
	// A generous deadline on the same scenario sails through.
	job, err := s.Submit(SolveRequest{Scenario: distinctScenario(t, 330)})
	if err != nil {
		t.Fatalf("generous deadline rejected: %v", err)
	}
	waitDone(t, job, 60*time.Second)
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
	for _, series := range []string{"sag_breaker_state 1", "sag_breaker_trips_total 1", "sag_jobs_shed_total ", "sag_rate_limited_total "} {
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
