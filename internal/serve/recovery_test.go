package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sagrelay/internal/fault"
)

// armFault installs a fault plan for the test and disarms it at cleanup.
func armFault(t *testing.T, spec string) {
	t.Helper()
	if err := fault.EnableSpec(spec, 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
}

func waitState(t *testing.T, j *Job, want JobState, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if j.status().State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %v, want %v", j.ID, j.status().State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func shutdownNow(t *testing.T, s *Server, within time.Duration) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	return s.Shutdown(ctx)
}

func TestPanicInSolveFailsOnlyThatJob(t *testing.T) {
	// An injected panic inside job execution must fail that one job with a
	// typed panic error while the server keeps accepting and solving.
	s := newTestServer(t, Options{})
	armFault(t, "serve.job=panic:n=1")

	bad, err := s.Submit(SolveRequest{Scenario: tinyScenario(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, bad, 30*time.Second)
	st := bad.status()
	if st.State != StateFailed {
		t.Fatalf("panicked job state = %v, want failed", st.State)
	}
	if !strings.Contains(st.Error, "panic in serve.job") {
		t.Fatalf("panicked job error = %q, want a serve.job panic", st.Error)
	}

	good, err := s.Submit(SolveRequest{Scenario: tinyScenario(t)})
	if err != nil {
		t.Fatalf("server stopped accepting after a panic: %v", err)
	}
	waitDone(t, good, 60*time.Second)
	if state := good.status().State; state != StateDone {
		t.Fatalf("job after panic finished %v, want done", state)
	}

	m := s.MetricsSnapshot()
	if m["jobs_panicked"] != 1 {
		t.Errorf("jobs_panicked = %d, want 1", m["jobs_panicked"])
	}
	if m["jobs_failed"] != 1 {
		t.Errorf("jobs_failed = %d, want 1", m["jobs_failed"])
	}
	if m["panics_recovered"] < 1 {
		t.Errorf("panics_recovered = %d, want >= 1", m["panics_recovered"])
	}
}

func TestJournalRestoresFinishedJobsAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	a := newTestServer(t, Options{DataDir: dir})
	job, err := a.Submit(SolveRequest{Scenario: tinyScenario(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 60*time.Second)
	doc, state := job.resultBytes()
	if state != StateDone {
		t.Fatalf("first life: %v", state)
	}
	if err := shutdownNow(t, a, 30*time.Second); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	b := newTestServer(t, Options{DataDir: dir})
	restored, ok := b.Job(job.ID)
	if !ok {
		t.Fatalf("job %s missing after restart", job.ID)
	}
	gotDoc, gotState := restored.resultBytes()
	if gotState != StateDone {
		t.Fatalf("restored state = %v, want done", gotState)
	}
	if !bytes.Equal(gotDoc, doc) {
		t.Fatal("restored result is not byte-identical")
	}
	m := b.MetricsSnapshot()
	if m["journal_restored_jobs"] != 1 || m["journal_replayed_jobs"] != 0 || m["solves"] != 0 {
		t.Fatalf("restart metrics restored=%d replayed=%d solves=%d, want 1/0/0",
			m["journal_restored_jobs"], m["journal_replayed_jobs"], m["solves"])
	}

	// The restored result also refilled the content-addressed cache: the
	// same request is a free cache hit in the second life.
	again, err := b.Submit(SolveRequest{Scenario: tinyScenario(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, again, 5*time.Second)
	if !again.status().CacheHit {
		t.Error("identical request after restart was not a cache hit")
	}
	if m := b.MetricsSnapshot(); m["solves"] != 0 {
		t.Errorf("solves = %d after cache-hit resubmit, want 0", m["solves"])
	}
}

func TestJournalReplaysCrashedJobFromRawWAL(t *testing.T) {
	// A crash leaves submit+start with no terminal record — plus, here, a
	// torn half-written line, which the tolerant reader must stop at. The
	// next start re-runs the job under its original ID. An unchecksummed
	// mid-file line (the pre-checksum format) is quarantined like any other
	// damaged record: it must not finish the job.
	dir := t.TempDir()
	req, err := json.Marshal(SolveRequest{Scenario: tinyScenario(t)})
	if err != nil {
		t.Fatal(err)
	}
	key := requestKey(tinyScenario(t), SolveOptions{})
	var wal bytes.Buffer
	for _, r := range []jrec{
		{T: recSubmit, ID: "j-7", Key: key, Req: req},
		{T: recStart, ID: "j-7", Key: key},
	} {
		line, err := encodeLine(&r)
		if err != nil {
			t.Fatal(err)
		}
		wal.Write(line)
	}
	unchecked, err := json.Marshal(jrec{T: recFail, ID: "j-7", Err: "unverifiable"})
	if err != nil {
		t.Fatal(err)
	}
	wal.Write(append(unchecked, '\n'))
	torn, err := encodeLine(&jrec{T: recDone, ID: "j-7", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	wal.Write(torn[:len(torn)/2]) // torn tail from kill -9
	if err := os.WriteFile(journalPath(dir), wal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{DataDir: dir})
	if m := s.MetricsSnapshot(); m["journal_replayed_jobs"] != 1 || m["journal_corrupt_records"] != 1 {
		t.Fatalf("journal_replayed_jobs = %d, journal_corrupt_records = %d, want 1 and 1",
			m["journal_replayed_jobs"], m["journal_corrupt_records"])
	}
	job, ok := s.Job("j-7")
	if !ok {
		t.Fatal("crashed job not resurrected under its original ID")
	}
	waitDone(t, job, 60*time.Second)
	doc, state := job.resultBytes()
	if state != StateDone {
		t.Fatalf("replayed job finished %v (err %q), want done", state, job.status().Error)
	}
	var res ResultDoc
	if err := json.Unmarshal(doc, &res); err != nil || !res.Feasible {
		t.Fatalf("replayed result implausible: %s (%v)", doc, err)
	}
	// New submissions must not collide with the resurrected ID space.
	next, err := s.Submit(SolveRequest{Scenario: bigScenario(t)})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "j-8" {
		t.Errorf("next ID after replaying j-7 is %s, want j-8", next.ID)
	}
}

func TestShutdownInterruptedJobRerunsAfterRestart(t *testing.T) {
	dir := t.TempDir()

	// Slow every simplex pivot block so the GAC job is still mid-solve when
	// the forced shutdown lands; its cancellation journals as an interrupt.
	armFault(t, "lp.pivot=delay:d=5ms")
	a := newTestServer(t, Options{DataDir: dir, Workers: 2})
	job, err := a.Submit(SolveRequest{
		Scenario: tinyScenario(t),
		Options:  SolveOptions{Coverage: "GAC", TimeoutMS: 600_000, NoDegrade: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateRunning, 30*time.Second)
	if err := shutdownNow(t, a, 50*time.Millisecond); err == nil {
		t.Fatal("forced shutdown should report its expired drain budget")
	}
	if st := job.status(); st.State != StateCancelled || !strings.Contains(st.Error, "interrupted by shutdown") {
		t.Fatalf("job after forced shutdown: %v %q, want cancelled as interrupted", st.State, st.Error)
	}
	fault.Disable()

	b := newTestServer(t, Options{DataDir: dir})
	if m := b.MetricsSnapshot(); m["journal_replayed_jobs"] != 1 {
		t.Fatalf("journal_replayed_jobs = %d, want 1", m["journal_replayed_jobs"])
	}
	reborn, ok := b.Job(job.ID)
	if !ok {
		t.Fatalf("interrupted job %s not replayed", job.ID)
	}
	waitDone(t, reborn, 60*time.Second)
	if state := reborn.status().State; state != StateDone {
		t.Fatalf("replayed job finished %v (err %q), want done", state, reborn.status().Error)
	}
}

func TestClientCancelStaysDeadAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	armFault(t, "lp.pivot=delay:d=5ms")
	a := newTestServer(t, Options{DataDir: dir, Workers: 2})
	job, err := a.Submit(SolveRequest{
		Scenario: tinyScenario(t),
		Options:  SolveOptions{Coverage: "GAC", TimeoutMS: 600_000, NoDegrade: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateRunning, 30*time.Second)
	if _, ok := a.Cancel(job.ID); !ok {
		t.Fatal("Cancel: no such job")
	}
	waitDone(t, job, 30*time.Second)
	if state := job.status().State; state != StateCancelled {
		t.Fatalf("cancelled job finished %v", state)
	}
	fault.Disable()
	if err := shutdownNow(t, a, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, Options{DataDir: dir})
	if m := b.MetricsSnapshot(); m["journal_replayed_jobs"] != 0 {
		t.Fatalf("deliberately cancelled job was replayed (%d)", m["journal_replayed_jobs"])
	}
	dead, ok := b.Job(job.ID)
	if !ok {
		t.Fatal("cancelled job should still be visible after restart")
	}
	if state := dead.status().State; state != StateCancelled {
		t.Fatalf("restored state = %v, want cancelled", state)
	}
}

func TestZoneTimeoutTruncationNeverCached(t *testing.T) {
	// A per-zone wall-clock budget that expires mid-search yields a
	// load-dependent result (truncated incumbent, or heuristic fallback when
	// no incumbent exists). Such a result must reach the client marked
	// degraded but never the content-addressed cache or results directory —
	// a transient timeout under machine load must not be replayed as the
	// canonical answer for that content address.
	dir := t.TempDir()
	armFault(t, "milp.node=delay:d=20ms") // outlast the 1ms zone budget before the first node
	s := newTestServer(t, Options{DataDir: dir})
	req := SolveRequest{
		Scenario: tinyScenario(t),
		Options:  SolveOptions{Coverage: "GAC", ZoneTimeoutMS: 1, TimeoutMS: 600_000},
	}
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 60*time.Second)
	doc, state := job.resultBytes()
	if state != StateDone {
		t.Fatalf("job finished %v (err %q), want done (degraded)", state, job.status().Error)
	}
	var rd ResultDoc
	if err := json.Unmarshal(doc, &rd); err != nil {
		t.Fatal(err)
	}
	if !rd.Degraded {
		t.Fatalf("zone-timeout result not marked degraded: %s", doc)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "results")); len(entries) != 0 {
		t.Fatalf("timing-dependent result persisted to results/: %d files", len(entries))
	}
	if m := s.MetricsSnapshot(); m["cache_entries"] != 0 {
		t.Fatalf("timing-dependent result entered the cache (%d entries)", m["cache_entries"])
	}

	// A repeat of the same request must be a cache miss, not a replay of
	// the truncated answer.
	again, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, again, 60*time.Second)
	if m := s.MetricsSnapshot(); m["cache_hits"] != 0 {
		t.Fatalf("truncated result served from cache (%d hits)", m["cache_hits"])
	}
}

func TestDegradedResultSurvivesRestartInlineOnly(t *testing.T) {
	// A degraded result is journaled inline (never content-addressed): the
	// restart restores the job's document but leaves the cache empty.
	dir := t.TempDir()
	a := newTestServer(t, Options{DataDir: dir})
	job, err := a.Submit(SolveRequest{
		Scenario: bigScenario(t),
		Options: SolveOptions{
			Coverage: "IAC", MaxZoneSS: 64, MaxNodes: 1 << 30,
			ZoneTimeoutMS: 600_000, TimeoutMS: 50,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 30*time.Second)
	doc, state := job.resultBytes()
	if state != StateDone {
		t.Fatalf("degraded job finished %v (err %q)", state, job.status().Error)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "results")); len(entries) != 0 {
		t.Fatalf("degraded result leaked into results/: %d files", len(entries))
	}
	if err := shutdownNow(t, a, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, Options{DataDir: dir})
	restored, ok := b.Job(job.ID)
	if !ok {
		t.Fatal("degraded job missing after restart")
	}
	gotDoc, gotState := restored.resultBytes()
	if gotState != StateDone || !bytes.Equal(gotDoc, doc) {
		t.Fatalf("restored degraded job: state %v, identical %v", gotState, bytes.Equal(gotDoc, doc))
	}
	if m := b.MetricsSnapshot(); m["cache_entries"] != 0 {
		t.Errorf("cache_entries = %d after restoring a degraded job, want 0", m["cache_entries"])
	}
}
