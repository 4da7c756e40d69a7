package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// mediumScenario is a multi-zone IAC workload that solves in a couple of
// seconds — slow enough that a progress stream opened right after submission
// reliably observes mid-solve samples.
func mediumScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 600, NumSS: 24, NumBS: 2, SNRdB: -15, Seed: 3,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return sc
}

// TestProgressStreamLiveJob tails ?stream=1 on a multi-zone solve running
// under Workers>1 and checks the live-tail contract: at least one mid-solve
// snapshot with a per-zone gap before the terminal one, monotone node
// counts, non-increasing per-zone gaps, and a stream that closes by itself
// when the job finishes.
func TestProgressStreamLiveJob(t *testing.T) {
	var logBuf syncBuffer
	logger, err := obs.NewLogger(&logBuf, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Workers: 4, Logger: logger})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job, err := s.Submit(SolveRequest{Scenario: mediumScenario(t), Options: SolveOptions{Coverage: "IAC"}})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/progress?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q, want application/x-ndjson", ct)
	}

	var docs []progressDoc
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var doc progressDoc
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		docs = append(docs, doc)
	}
	// The stream must close on its own once the job reaches a terminal
	// state — reaching here without error is that assertion.
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	waitDone(t, job, 60*time.Second)
	if st := job.status().State; st != StateDone {
		t.Fatalf("job ended %v (err %q)", st, job.status().Error)
	}

	if len(docs) < 2 {
		t.Fatalf("stream emitted %d snapshots, want >= 2 (a live one plus the terminal one)", len(docs))
	}
	last := docs[len(docs)-1]
	if !last.Final {
		t.Errorf("last snapshot is not final: %+v", last)
	}
	if last.ZonesSeen == 0 || last.ZonesDone != last.ZonesSeen {
		t.Errorf("terminal snapshot zones: seen %d done %d, want all done and > 0", last.ZonesSeen, last.ZonesDone)
	}

	midGap := false
	prevNodes := -1
	zoneGap := make(map[int]float64)
	for i, doc := range docs {
		if doc.Schema != progressSchema {
			t.Fatalf("snapshot %d schema = %q, want %q", i, doc.Schema, progressSchema)
		}
		if doc.JobID != job.ID {
			t.Fatalf("snapshot %d job_id = %q, want %q", i, doc.JobID, job.ID)
		}
		if doc.Final && i != len(docs)-1 {
			t.Fatalf("snapshot %d is final but %d more lines followed", i, len(docs)-1-i)
		}
		if doc.Nodes < prevNodes {
			t.Errorf("snapshot %d: aggregate nodes went backwards (%d -> %d)", i, prevNodes, doc.Nodes)
		}
		prevNodes = doc.Nodes
		for _, row := range doc.Zones {
			if !row.HasGap {
				continue
			}
			if !doc.Final {
				midGap = true
			}
			if prev, ok := zoneGap[row.Zone]; ok && row.Gap > prev+1e-9 {
				t.Errorf("snapshot %d: zone %d gap increased %v -> %v", i, row.Zone, prev, row.Gap)
			}
			zoneGap[row.Zone] = row.Gap
		}
	}
	if !midGap {
		t.Error("no mid-solve snapshot carried a per-zone gap before the terminal one")
	}
	if got := s.metrics.ProgressStreams.Load(); got < 1 {
		t.Errorf("progress_streams_total = %d, want >= 1", got)
	}

	// The JSON event log correlates by job_id: the finished job has its
	// "job done" line ("job done degraded" when a zone hit its time limit,
	// as it can on a loaded machine). The line is written just after the
	// done channel closes, so poll briefly.
	for deadline := time.Now().Add(5 * time.Second); !loggedDone(t, logBuf.String(), job.ID); {
		if time.Now().After(deadline) {
			t.Fatalf("no JSON log line with msg %q and job_id %q in:\n%s", "job done", job.ID, logBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// loggedDone reports whether the captured JSON log holds a "job done" line
// for jobID; every captured line must parse as JSON.
func loggedDone(t *testing.T, log, jobID string) bool {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		var entry struct {
			Msg   string `json:"msg"`
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		if strings.HasPrefix(entry.Msg, "job done") && entry.JobID == jobID {
			return true
		}
	}
	return false
}

// syncBuffer is a mutex-guarded log sink: tests read captured lines while
// server goroutines may still be writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestProgressSnapshotAndCacheHit checks the non-streaming endpoint: a
// finished solver job serves a final per-zone snapshot, a cache hit (which
// never ran the solver) serves the empty terminal document, and an unknown
// job is a 404.
func TestProgressSnapshotAndCacheHit(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job := submitAndWait(t, s, tinyScenario(t), SolveOptions{Coverage: "IAC"})
	var doc progressDoc
	getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/progress", &doc)
	if !doc.Final || doc.Schema != progressSchema {
		t.Fatalf("finished job snapshot: %+v", doc)
	}
	if doc.ZonesSeen == 0 {
		t.Fatal("finished job snapshot has no zones")
	}
	for _, row := range doc.Zones {
		if row.Phase != "done" && row.Phase != "reused" {
			t.Errorf("zone %d phase %q after completion", row.Zone, row.Phase)
		}
	}

	hit := submitAndWait(t, s, tinyScenario(t), SolveOptions{Coverage: "IAC"})
	if !hit.status().CacheHit {
		t.Fatal("second submit was not a cache hit")
	}
	var hitDoc progressDoc
	getJSON(t, ts.URL+"/v1/jobs/"+hit.ID+"/progress", &hitDoc)
	if !hitDoc.Final || len(hitDoc.Zones) != 0 {
		t.Errorf("cache-hit snapshot should be empty and final: %+v", hitDoc)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job progress status = %d, want 404", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestFlightRecordAfterJob checks the flight recorder end to end: a
// finished job is retrievable at /debug/flight/{id} with its span tree, its
// final progress snapshot, its convergence curve, and the admission-side
// outcome fields.
func TestFlightRecordAfterJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	job := submitAndWait(t, s, tinyScenario(t), SolveOptions{Coverage: "IAC"})
	if job.status().State != StateDone {
		t.Fatalf("job ended %v", job.status().State)
	}
	// The record lands just after the done channel closes; wait for it.
	waitFor := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.FlightRecorder().Get(job.ID); ok {
			break
		}
		if time.Now().After(waitFor) {
			t.Fatalf("job %s never got a flight record", job.ID)
		}
		time.Sleep(10 * time.Millisecond)
	}

	fs := httptest.NewServer(s.FlightHandler())
	defer fs.Close()

	var index struct {
		Schema  string `json:"schema"`
		Count   int    `json:"count"`
		Records []struct {
			ID      string `json:"id"`
			Outcome string `json:"outcome"`
		} `json:"records"`
	}
	getJSON(t, fs.URL+"/debug/flight", &index)
	if index.Schema != "sagflight/1" || index.Count < 1 {
		t.Fatalf("flight index: %+v", index)
	}
	found := false
	for _, r := range index.Records {
		if r.ID == job.ID && r.Outcome == "done" {
			found = true
		}
	}
	if !found {
		t.Fatalf("job %s not in flight index %+v", job.ID, index.Records)
	}

	var rec struct {
		obs.FlightRecord
		Detail flightDetail `json:"detail"`
	}
	getJSON(t, fs.URL+"/debug/flight/"+job.ID, &rec)
	if rec.Outcome != "done" || rec.Bad {
		t.Errorf("record outcome = %q bad = %v, want done/false", rec.Outcome, rec.Bad)
	}
	if rec.WallMS <= 0 {
		t.Errorf("record wall_ms = %v, want > 0", rec.WallMS)
	}
	if rec.Detail.Schema != "sagflightdetail/1" {
		t.Errorf("detail schema = %q", rec.Detail.Schema)
	}
	if rec.Detail.Trace == nil || rec.Detail.Trace.Name == "" {
		t.Error("flight record carries no span tree")
	}
	if rec.Detail.Progress == nil || !rec.Detail.Progress.Final || rec.Detail.Progress.ZonesSeen == 0 {
		t.Errorf("flight record progress: %+v", rec.Detail.Progress)
	}
	if len(rec.Detail.Curve) == 0 {
		t.Error("flight record has no convergence curve")
	}

	// The SIGQUIT dump path renders the same ring as one parseable document.
	var dump struct {
		Schema string `json:"schema"`
		Count  int    `json:"count"`
	}
	if err := json.Unmarshal(s.FlightRecorder().Dump(), &dump); err != nil {
		t.Fatalf("flight dump is not JSON: %v", err)
	}
	if dump.Count < 1 {
		t.Errorf("flight dump count = %d, want >= 1", dump.Count)
	}

	resp, err := http.Get(fs.URL + "/debug/flight/absent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("absent flight record status = %d, want 404", resp.StatusCode)
	}

	// Failures land in the preferentially-retained bad half.
	bad, err := s.Submit(SolveRequest{Scenario: tinyScenario(t), Options: SolveOptions{Coverage: "IAC", TimeoutMS: 1}})
	if err == nil {
		waitDone(t, bad, 30*time.Second)
		if st := bad.status().State; st == StateFailed || st == StateCancelled {
			waitFor = time.Now().Add(5 * time.Second)
			for {
				if rec, ok := s.FlightRecorder().Get(bad.ID); ok {
					if !rec.Bad {
						t.Errorf("job %s ended %v but its record is not marked bad", bad.ID, st)
					}
					break
				}
				if time.Now().After(waitFor) {
					t.Errorf("failed job %s has no flight record", bad.ID)
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
}
