package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sagrelay/internal/experiment"
	"sagrelay/internal/geom"
	"sagrelay/internal/incr"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// readStream decodes one NDJSON batch stream into its header, item lines
// (keyed by item index) and trailer.
func readStream(t *testing.T, body io.Reader) (batchStreamHeader, map[int]batchStreamItem, *batchStreamTrailer) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	if !sc.Scan() {
		t.Fatalf("stream has no header line: %v", sc.Err())
	}
	var hdr batchStreamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("header line not JSON: %v", err)
	}
	items := make(map[int]batchStreamItem)
	var trailer *batchStreamTrailer
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"done"`)) {
			var tr batchStreamTrailer
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatalf("trailer line not JSON: %v", err)
			}
			trailer = &tr
			continue
		}
		var it batchStreamItem
		if err := json.Unmarshal(line, &it); err != nil {
			t.Fatalf("item line not JSON: %v", err)
		}
		items[it.Item] = it
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return hdr, items, trailer
}

func postBatch(t *testing.T, url string, req BatchRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBatchGridStreamMatchesIndividualSolves is the tentpole acceptance
// check: a streamed grid batch is byte-identical (modulo trace) to the same
// scenarios solved one at a time, and the grid form expands server-side to
// the exact scenarios the shared experiment.GridSpec expands to locally.
func TestBatchGridStreamMatchesIndividualSolves(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	grid := BatchGrid{
		Template: GridTemplate{FieldSide: 300, NumBS: 2, SNRdB: -15},
		Dims:     []experiment.GridDim{{Name: experiment.DimUsers, Values: []float64{6, 8}}},
		Runs:     1,
		Seed:     100,
	}
	resp := postBatch(t, ts.URL+"/v1/batch?wait=1", BatchRequest{Grid: &grid})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/batch?wait=1 = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	hdr, items, trailer := readStream(t, resp.Body)
	if hdr.Schema != batchSchema || hdr.Items != 2 {
		t.Fatalf("header = %+v, want schema %s with 2 items", hdr, batchSchema)
	}
	if trailer == nil || !trailer.Done || !trailer.Complete || trailer.ItemsDone != 2 {
		t.Fatalf("trailer = %+v, want done+complete with 2 items done", trailer)
	}

	// The same grid expanded locally through the shared spec, solved one at
	// a time on a fresh server (cold caches).
	spec := experiment.GridSpec{
		Base: scenario.GenConfig{FieldSide: 300, NumBS: 2, SNRdB: -15},
		Dims: grid.Dims,
		Runs: 1,
		Seed: 100,
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("local expansion has %d cells, want 2", len(cells))
	}
	solo := newTestServer(t, Options{})
	for i, c := range cells {
		sc, err := scenario.Generate(c.Gen)
		if err != nil {
			t.Fatal(err)
		}
		job, err := solo.Submit(SolveRequest{Scenario: sc})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job, 60*time.Second)
		doc, state := job.resultBytes()
		if state != StateDone {
			t.Fatalf("individual solve %d: %v (%s)", i, state, job.status().Error)
		}
		line, ok := items[i]
		if !ok || line.State != string(StateDone) {
			t.Fatalf("batch item %d = %+v, want a done line", i, line)
		}
		if len(line.Values) != 1 || line.Values[0] != c.Values[0] || line.Point != c.Point {
			t.Errorf("item %d provenance = point %d values %v, want point %d values %v",
				i, line.Point, line.Values, c.Point, c.Values)
		}
		if got, want := stripTrace(t, line.Result), stripTrace(t, doc); !bytes.Equal(got, want) {
			t.Errorf("batch item %d differs from individual solve:\n batch: %s\n  solo: %s", i, got, want)
		}
		var rd ResultDoc
		if err := json.Unmarshal(line.Result, &rd); err != nil || rd.Schema != resultSchema {
			t.Errorf("item %d result schema = %q, want %q", i, rd.Schema, resultSchema)
		}
	}
	if got := s.MetricsSnapshot(); got["batches_total"] != 1 || got["batch_items_total"] != 2 {
		t.Errorf("batch counters = %d/%d, want 1/2", got["batches_total"], got["batch_items_total"])
	}
}

// TestBatchDisconnectCancelsUnstartedItems: a mid-stream client disconnect
// cancels every item that has not started solving, and the solve counter
// proves the cancelled items never cost solver work.
func TestBatchDisconnectCancelsUnstartedItems(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Hold the first (and only) worker inside item 0's runJob long enough to
	// disconnect while items 1 and 2 are still queued behind it.
	armFault(t, "serve.job=delay:n=1:d=1500ms")

	req := BatchRequest{Items: []BatchItemRequest{
		{Scenario: distinctScenario(t, 710)},
		{Scenario: distinctScenario(t, 711)},
		{Scenario: distinctScenario(t, 712)},
	}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelReq := context.WithCancel(context.Background())
	defer cancelReq()
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/batch?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hdr batchStreamHeader
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil || json.Unmarshal(line, &hdr) != nil {
		t.Fatalf("reading stream header: %v (%q)", err, line)
	}
	b, ok := s.BatchByID(hdr.ID)
	if !ok {
		t.Fatalf("batch %s not in table", hdr.ID)
	}

	// Wait for item 0 to be running (the delay keeps it there), then drop
	// the connection mid-stream.
	deadline := time.Now().Add(10 * time.Second)
	for b.Items()[0].Job.status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("item 0 stuck in %v", b.Items()[0].Job.status().State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelReq()

	select {
	case <-b.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("batch did not settle after disconnect")
	}
	if st := b.Items()[0].Job.status(); st.State != StateDone {
		t.Errorf("running item 0 = %v (%s), want done (it had already started)", st.State, st.Error)
	}
	for _, i := range []int{1, 2} {
		if st := b.Items()[i].Job.status(); st.State != StateCancelled {
			t.Errorf("unstarted item %d = %v, want cancelled", i, st.State)
		}
	}
	snap := s.MetricsSnapshot()
	if snap["solves"] != 1 {
		t.Errorf("solves = %d, want exactly 1 — cancelled items must cost zero solver work", snap["solves"])
	}
	if snap["jobs_cancelled"] != 2 {
		t.Errorf("jobs_cancelled = %d, want 2", snap["jobs_cancelled"])
	}
}

// TestBatchItemCacheHitLeavesSolveRecords: batch items take the same
// submission path as /v1/solve, so an item answered from the cache leaves
// the same flight record and log line as a cache-hit solve, and serves the
// same bytes.
func TestBatchItemCacheHitLeavesSolveRecords(t *testing.T) {
	var logBuf syncBuffer
	logger, err := obs.NewLogger(&logBuf, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Workers: 2, Logger: logger})
	sc := distinctScenario(t, 721)
	solved := submitAndWait(t, s, sc, SolveOptions{})
	solveHit := submitAndWait(t, s, sc, SolveOptions{})

	b, err := s.SubmitBatch(BatchRequest{Items: []BatchItemRequest{
		{Scenario: sc},
		{Scenario: distinctScenario(t, 722)},
	}})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	select {
	case <-b.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("batch did not finish")
	}
	if st := b.Items()[1].Job.status(); st.State != StateDone || st.CacheHit {
		t.Errorf("item 1 = %v (cache_hit %v), want a done solve", st.State, st.CacheHit)
	}
	want, _ := solved.resultBytes()
	for _, hit := range []*Job{solveHit, b.Items()[0].Job} {
		if st := hit.status(); st.State != StateDone || !st.CacheHit {
			t.Fatalf("%s = %v (cache_hit %v), want a done cache hit", hit.ID, st.State, st.CacheHit)
		}
		if doc, _ := hit.resultBytes(); !bytes.Equal(doc, want) {
			t.Errorf("cache hit %s serves different bytes from the solve it replays", hit.ID)
		}
		rec, ok := s.FlightRecorder().Get(hit.ID)
		if !ok || rec.Kind != "solve" || rec.Outcome != "cache_hit" || rec.Bad {
			t.Errorf("cache hit %s flight record = %+v (found %v), want a good solve record with outcome cache_hit", hit.ID, rec, ok)
		}
		if !strings.Contains(logBuf.String(), `"msg":"job done from cache","job_id":"`+hit.ID+`"`) {
			t.Errorf("no \"job done from cache\" log line for %s:\n%s", hit.ID, logBuf.String())
		}
	}
}

// TestBatchReplayKeepsLegacyShedRejection: a journal written while the
// service still shed batch items carries a shed item as an inline
// rejection in its batch record. Replay restores it as that item's
// rejection, with the code and message it had, next to the restored
// member job.
func TestBatchReplayKeepsLegacyShedRejection(t *testing.T) {
	dir := t.TempDir()
	var wal bytes.Buffer
	for _, raw := range []string{
		`{"t":"submit","id":"j-1","key":"k1"}`,
		`{"t":"cancel","id":"j-1","err":"context deadline exceeded"}`,
		`{"t":"batch","id":"b-3","doc":{"schema":"sagbatch/1","items":[` +
			`{"item":0,"error":{"code":"shed","message":"admit: load shed: estimated queue wait 2s + solve 1s exceeds deadline 1s","retry_after_s":2}},` +
			`{"item":1,"job":"j-1"}]}}`,
	} {
		var r jrec
		if err := json.Unmarshal([]byte(raw), &r); err != nil {
			t.Fatal(err)
		}
		line, err := encodeLine(&r)
		if err != nil {
			t.Fatal(err)
		}
		wal.Write(line)
	}
	if err := os.WriteFile(journalPath(dir), wal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{DataDir: dir})
	b, ok := s.BatchByID("b-3")
	if !ok {
		t.Fatal("journaled batch b-3 not restored")
	}
	select {
	case <-b.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("restored batch with no pending member did not finish")
	}
	it0 := b.Items()[0]
	if it0.Job != nil || it0.Reject == nil || it0.Reject.Code != "shed" ||
		!strings.Contains(it0.Reject.Message, "load shed") || it0.Reject.RetryAfterS != 2 {
		t.Fatalf("item 0 = job %v, reject %+v; want the journaled shed rejection", it0.Job, it0.Reject)
	}
	if j := b.Items()[1].Job; j == nil || j.ID != "j-1" || j.status().State != StateCancelled {
		t.Fatalf("item 1 = %+v, want restored cancelled job j-1", b.Items()[1])
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/batch/b-3/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, items, trailer := readStream(t, resp.Body)
	if line := items[0]; line.State != "rejected" || line.Error == nil || line.Error.Code != "shed" {
		t.Errorf("item 0 stream line = %+v, want state rejected with error.code shed", line)
	}
	if trailer == nil || trailer.ItemsRejected != 1 || trailer.ItemsCancelled != 1 || !trailer.Complete {
		t.Errorf("trailer = %+v, want 1 rejected / 1 cancelled / complete", trailer)
	}
	// Batch IDs continue after the journaled one.
	next, err := s.SubmitBatch(BatchRequest{Items: []BatchItemRequest{{Scenario: distinctScenario(t, 730)}}})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "b-4" {
		t.Errorf("next batch ID = %s, want b-4", next.ID)
	}
	<-next.Done()
}

// TestBatchJournalBoundedAcrossRestarts: replay keeps the batch table and
// the journal's batch records within MaxBatches, as a live server keeps its
// table. Each life submits three one-item batches against MaxBatches 2; at
// every restart the restored batches and the compacted journal's batch
// lines must stay at two instead of growing by three per life.
func TestBatchJournalBoundedAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	const maxBatches = 2
	seed := int64(800)
	for life := 0; life < 5; life++ {
		s := newTestServer(t, Options{DataDir: dir, MaxBatches: maxBatches})
		if life > 0 {
			s.mu.Lock()
			restored := len(s.border)
			s.mu.Unlock()
			if restored != maxBatches {
				t.Errorf("life %d: %d batches restored, want %d", life, restored, maxBatches)
			}
			recs, _, err := readJournal(journalPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			lines := 0
			for _, r := range recs {
				if r.T == recBatch {
					lines++
				}
			}
			if lines != maxBatches {
				t.Errorf("life %d: compacted journal has %d batch records, want %d", life, lines, maxBatches)
			}
		}
		for i := 0; i < 3; i++ {
			seed++
			b, err := s.SubmitBatch(BatchRequest{Items: []BatchItemRequest{{Scenario: distinctScenario(t, seed)}}})
			if err != nil {
				t.Fatalf("life %d: SubmitBatch: %v", life, err)
			}
			<-b.Done()
		}
		if err := shutdownNow(t, s, 30*time.Second); err != nil {
			t.Fatalf("life %d: shutdown: %v", life, err)
		}
	}
}

// copyDir snapshots a journal data dir mid-run — the kill -9 image a crash
// would leave (appends are fsynced, so the copy sees every acknowledged
// record; at worst a torn tail, which the reader tolerates).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copyDir: %v", err)
	}
}

// TestBatchKillRecoveryResumesUnfinishedItems: a journaled batch killed with
// one item done, one mid-solve and one queued resumes on the next start —
// the finished item is restored byte-identically without re-solving, the
// other two re-run, and the restored batch completes.
func TestBatchKillRecoveryResumesUnfinishedItems(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a := newTestServer(t, Options{Workers: 1, DataDir: dirA})
	// Delay the second runJob: item 0 finishes, item 1 sits mid-solve while
	// the "crash" snapshot is taken, item 2 never starts.
	armFault(t, "serve.job=delay:n=2:d=2s")

	b, err := a.SubmitBatch(BatchRequest{Items: []BatchItemRequest{
		{Scenario: distinctScenario(t, 730)},
		{Scenario: distinctScenario(t, 731)},
		{Scenario: distinctScenario(t, 732)},
	}})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	waitDone(t, b.Items()[0].Job, 60*time.Second)
	doneDoc, state := b.Items()[0].Job.resultBytes()
	if state != StateDone {
		t.Fatalf("item 0 = %v, want done", state)
	}
	waitState(t, b.Items()[1].Job, StateRunning, 10*time.Second)
	copyDir(t, dirA, dirB)

	rb := newTestServer(t, Options{Workers: 1, DataDir: dirB})
	b2, ok := rb.BatchByID(b.ID)
	if !ok {
		t.Fatalf("restored server has no batch %s", b.ID)
	}
	select {
	case <-b2.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("restored batch did not finish")
	}
	for i, it := range b2.Items() {
		st := it.Job.status()
		if st.State != StateDone {
			t.Errorf("restored item %d = %v (%s), want done", i, st.State, st.Error)
		}
		if it.Job.ID != b.Items()[i].Job.ID {
			t.Errorf("restored item %d job ID = %s, want %s", i, it.Job.ID, b.Items()[i].Job.ID)
		}
	}
	// The finished item was restored from the results dir, not re-solved.
	restoredDoc, _ := b2.Items()[0].Job.resultBytes()
	if !bytes.Equal(restoredDoc, doneDoc) {
		t.Error("restored item 0 is not byte-identical to its pre-crash result")
	}
	snap := rb.MetricsSnapshot()
	if snap["journal_restored_jobs"] < 1 {
		t.Errorf("journal_restored_jobs = %d, want >= 1", snap["journal_restored_jobs"])
	}
	if snap["journal_replayed_jobs"] != 2 {
		t.Errorf("journal_replayed_jobs = %d, want 2 (the unfinished items)", snap["journal_replayed_jobs"])
	}
}

// TestBatchNeighborItemsReuseZoneCaches: batch items that differ by a small
// delta splice unchanged zones from the shared zone stores instead of
// re-solving them.
func TestBatchNeighborItemsReuseZoneCaches(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	base := clusteredBase(t)
	moved, err := moveDelta(1, geom.Point{X: 96, Y: 88}).Apply(base)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	reused0 := incr.ZonesReused()
	b, err := s.SubmitBatch(BatchRequest{Items: []BatchItemRequest{
		{Scenario: base},
		{Scenario: moved},
	}})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	select {
	case <-b.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("batch did not finish")
	}
	for i, it := range b.Items() {
		if st := it.Job.status(); st.State != StateDone {
			t.Fatalf("item %d = %v (%s), want done", i, st.State, st.Error)
		}
	}
	if reused := incr.ZonesReused() - reused0; reused == 0 {
		t.Error("neighboring batch items reused no zones; expected shared-store splices")
	}
}

// TestBatchLimitsAndErrors: oversize batches and empty requests map to the
// typed envelope.
func TestBatchLimitsAndErrors(t *testing.T) {
	s := newTestServer(t, Options{MaxBatchItems: 2})
	_, err := s.SubmitBatch(BatchRequest{Items: []BatchItemRequest{
		{Scenario: distinctScenario(t, 740)},
		{Scenario: distinctScenario(t, 741)},
		{Scenario: distinctScenario(t, 742)},
	}})
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("3-item batch on a 2-item server: err = %v, want ErrBatchTooLarge", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postBatch(t, ts.URL+"/v1/batch", BatchRequest{Grid: &BatchGrid{
		Template: GridTemplate{FieldSide: 300, NumBS: 2},
		Dims:     []experiment.GridDim{{Name: experiment.DimUsers, Values: []float64{4, 6, 8}}},
	}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize grid = %d, want 400", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeBatchLimit {
		t.Errorf("error.code = %q, want %q", env.Error.Code, CodeBatchLimit)
	}

	resp2 := postBatch(t, ts.URL+"/v1/batch", BatchRequest{})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", resp2.StatusCode)
	}
	resp3, err := http.Get(ts.URL + "/v1/batch/b-999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown batch = %d, want 404", resp3.StatusCode)
	}
	var env404 errorEnvelope
	if err := json.NewDecoder(resp3.Body).Decode(&env404); err != nil {
		t.Fatal(err)
	}
	if env404.Error.Code != CodeNotFound {
		t.Errorf("404 error.code = %q, want not_found", env404.Error.Code)
	}
}

// TestBatchAsyncPollAndCancel: the async form (no wait) answers 202 with the
// versioned status document, GET polls it, DELETE cancels every unfinished
// item.
func TestBatchAsyncPollAndCancel(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	armFault(t, "serve.job=delay:n=1:d=1500ms")

	resp := postBatch(t, ts.URL+"/v1/batch", BatchRequest{Items: []BatchItemRequest{
		{Scenario: distinctScenario(t, 750)},
		{Scenario: distinctScenario(t, 751)},
	}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST = %d, want 202", resp.StatusCode)
	}
	var doc batchStatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != batchSchema || doc.ItemsTotal != 2 {
		t.Fatalf("status doc = %+v, want schema %s with 2 items", doc, batchSchema)
	}
	b, ok := s.BatchByID(doc.ID)
	if !ok {
		t.Fatal("batch missing from table")
	}
	waitState(t, b.Items()[0].Job, StateRunning, 10*time.Second)

	dreq, _ := http.NewRequest("DELETE", ts.URL+"/v1/batch/"+doc.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d, want 200", dresp.StatusCode)
	}
	select {
	case <-b.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled batch did not settle")
	}
	// DELETE cancels running items too (unlike a stream disconnect).
	for i, it := range b.Items() {
		if st := it.Job.status(); st.State != StateCancelled {
			t.Errorf("item %d = %v after DELETE, want cancelled", i, st.State)
		}
	}
	sresp, err := http.Get(ts.URL + "/v1/batch/" + doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var final batchStatusDoc
	if err := json.NewDecoder(sresp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || !final.Cancelled || final.ItemsCancelled != 2 {
		t.Errorf("final status = %+v, want done/cancelled with 2 cancelled items", final)
	}
	if final.Trace == nil {
		t.Error("finished batch status has no trace")
	}
}
