package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// holdFirstSync arms j's test hook so the first group fsync blocks inside
// its leader until release is closed; entered closes once it is blocked.
// Later fsyncs run through.
func holdFirstSync(j *journal) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	j.beforeSync = func() {
		held := false
		once.Do(func() { held = true })
		if held {
			close(entered)
			<-release
		}
	}
	return entered, release
}

func openTestJournal(t *testing.T) *journal {
	t.Helper()
	j, _, _, err := openJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.close() })
	return j
}

func mustWrite(t *testing.T, j *journal, id string) int64 {
	t.Helper()
	pos, _, err := j.write(jrec{T: recSubmit, ID: id, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	return pos
}

// TestGroupCommitSharesOneFsync: K appends that queue behind a running
// fsync are made durable together by exactly one more fsync, led by one of
// their waiters.
func TestGroupCommitSharesOneFsync(t *testing.T) {
	j := openTestJournal(t)
	entered, release := holdFirstSync(j)

	before := j.fsyncs.Load()
	first := make(chan bool)
	pos0 := mustWrite(t, j, "j-0")
	go func() {
		led, err := j.sync(pos0)
		if err != nil {
			t.Error(err)
		}
		first <- led
	}()
	<-entered

	const k = 8
	var wg sync.WaitGroup
	leds := make(chan bool, k)
	for i := 0; i < k; i++ {
		pos := mustWrite(t, j, "j-x")
		wg.Add(1)
		go func() {
			defer wg.Done()
			led, err := j.sync(pos)
			if err != nil {
				t.Error(err)
			}
			leds <- led
		}()
	}
	close(release)
	if !<-first {
		t.Error("the only waiter of the first fsync did not lead it")
	}
	wg.Wait()
	close(leds)
	led := 0
	for l := range leds {
		if l {
			led++
		}
	}
	if got := j.fsyncs.Load() - before - 1; got != 1 {
		t.Errorf("%d appends queued behind one fsync took %d more fsyncs, want 1", k, got)
	}
	if led != 1 {
		t.Errorf("%d of the queued waiters led an fsync, want 1", led)
	}
	// Everything written is durable now: a late waiter needs no fsync.
	if led, err := j.sync(j.written); led || err != nil {
		t.Errorf("sync of covered position: led %v, err %v; want no fsync", led, err)
	}
}

// TestGroupCommitErrorReachesEveryCoveredWaiter: a failed group fsync
// reports its error to every waiter it covered, not just its leader. The
// waiters join an fsync held open after the file under it was closed; one
// that comes late leads a retry that fails too, so none may see nil.
func TestGroupCommitErrorReachesEveryCoveredWaiter(t *testing.T) {
	j := openTestJournal(t)
	entered, release := holdFirstSync(j)
	const k = 4
	var pos [k]int64
	for i := range pos {
		pos[i] = mustWrite(t, j, "j-x")
	}
	f := j.f
	leader := make(chan error)
	go func() {
		_, err := j.sync(pos[k-1]) // covers every record written above
		leader <- err
	}()
	<-entered
	f.Close()

	var arrived sync.WaitGroup
	errs := make(chan error, k-1)
	for i := 0; i < k-1; i++ {
		arrived.Add(1)
		go func() {
			arrived.Done()
			_, err := j.sync(pos[i])
			errs <- err
		}()
	}
	arrived.Wait()
	close(release)
	if err := <-leader; err == nil {
		t.Error("leader: nil error from a failed fsync")
	}
	for i := 0; i < k-1; i++ {
		if err := <-errs; err == nil {
			t.Errorf("waiter %d: nil error from a failed group fsync", i)
		}
	}
}

// post sends body to the test server and returns the status and body.
func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestJournalFsyncsPerRequest pins the fsyncs on each request's path: a
// ?wait=1 cold solve pays one (its done record covers its submit), a cache
// hit one (submit and done in one write), an async cold solve two (the
// submit before its 202, then the done), and a batch one at submission.
func TestJournalFsyncsPerRequest(t *testing.T) {
	s := newTestServer(t, Options{DataDir: t.TempDir(), Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fsyncs := func() int64 { return s.MetricsSnapshot()["journal_fsyncs_total"] }
	body := func(seed int64) []byte {
		b, err := json.Marshal(SolveRequest{Scenario: distinctScenario(t, seed)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	n := fsyncs()
	if code, _ := post(t, ts.URL+"/v1/solve?wait=1", body(901)); code != http.StatusOK {
		t.Fatalf("cold ?wait=1 solve: status %d", code)
	}
	if got := fsyncs() - n; got != 1 {
		t.Errorf("cold ?wait=1 solve: %d fsyncs, want 1", got)
	}

	n = fsyncs()
	if code, _ := post(t, ts.URL+"/v1/solve?wait=1", body(901)); code != http.StatusOK {
		t.Fatalf("cache hit: status %d", code)
	}
	if got := fsyncs() - n; got != 1 {
		t.Errorf("cache hit: %d fsyncs, want 1", got)
	}

	// Hold the job at its start so the 202's fsync cannot be covered by the
	// done record's.
	armFault(t, "serve.job=delay:d=100ms")
	n = fsyncs()
	code, out := post(t, ts.URL+"/v1/solve", body(902))
	if code != http.StatusAccepted {
		t.Fatalf("async cold solve: status %d", code)
	}
	if got := fsyncs() - n; got != 1 {
		t.Errorf("async cold solve at its 202: %d fsyncs, want 1", got)
	}
	var st jobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}
	job, ok := s.Job(st.ID)
	if !ok {
		t.Fatalf("no job %s", st.ID)
	}
	waitDone(t, job, 60*time.Second)
	if got := fsyncs() - n; got != 2 {
		t.Errorf("async cold solve: %d fsyncs, want 2", got)
	}

	n = fsyncs()
	b, err := s.SubmitBatch(BatchRequest{Items: []BatchItemRequest{
		{Scenario: distinctScenario(t, 901)}, {Scenario: distinctScenario(t, 902)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-b.Done()
	if got := fsyncs() - n; got != 1 {
		t.Errorf("batch of two cache hits: %d fsyncs, want 1", got)
	}
}

// TestJournalSpanOnJobTrace: the flight record's span tree carries the done
// record's journal span, from its write to its durability.
func TestJournalSpanOnJobTrace(t *testing.T) {
	s := newTestServer(t, Options{DataDir: t.TempDir(), Workers: 1})
	job := submitAndWait(t, s, tinyScenario(t), SolveOptions{})
	var detail flightDetail
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r, ok := s.FlightRecorder().Get(job.ID); ok {
			if err := json.Unmarshal(r.Detail, &detail); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never got a flight record", job.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr := detail.Trace
	if tr == nil {
		t.Fatal("flight record has no trace")
	}
	sp := tr.Find("journal")
	if sp == nil {
		t.Fatal("job trace has no journal span")
	}
	doc, _ := job.resultBytes()
	if sp.Attrs["records"] != "1" || sp.Attrs["led"] != "true" || sp.Attrs["bytes"] == "" {
		t.Errorf("journal span attrs = %v, want records 1, led true, bytes set", sp.Attrs)
	}
	var bytesAttr int
	if err := json.Unmarshal([]byte(sp.Attrs["bytes"]), &bytesAttr); err != nil || bytesAttr <= len(doc) {
		t.Errorf("journal span bytes = %q, want more than the %d-byte document it carries", sp.Attrs["bytes"], len(doc))
	}
	if sp.StartNS+sp.DurNS > tr.DurNS {
		t.Errorf("journal span ends at %dns, after its job root (%dns)", sp.StartNS+sp.DurNS, tr.DurNS)
	}
}

// TestSolvedDoneRecordCarriesDocument: a solved job's done record carries
// its result document inline, and nothing is written under results/.
func TestSolvedDoneRecordCarriesDocument(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{DataDir: dir})
	job := submitAndWait(t, s, tinyScenario(t), SolveOptions{})
	want, _ := job.resultBytes()
	recs, _, err := readJournal(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].T != recDone || !bytes.Equal(recs[1].Doc, want) {
		t.Fatalf("journal = %d records, done doc identical %v; want submit and a done carrying the document",
			len(recs), len(recs) == 2 && bytes.Equal(recs[1].Doc, want))
	}
	if _, err := os.Stat(resultsDir(dir)); !os.IsNotExist(err) {
		t.Errorf("results/ exists (%v); documents belong in the journal", err)
	}
}

// writeParentDataDir lays out a data dir as the previous journal format
// left it: key-only done records, each document under results/<key>.json.
func writeParentDataDir(t *testing.T, dir string, recs []jrec, docs map[string][]byte) {
	t.Helper()
	var wal bytes.Buffer
	for i := range recs {
		line, err := encodeLine(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		wal.Write(line)
	}
	if err := os.MkdirAll(resultsDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(dir), wal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for key, doc := range docs {
		if err := os.WriteFile(filepath.Join(resultsDir(dir), key+".json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// requireRestored asserts job id restored done with exactly doc.
func requireRestored(t *testing.T, s *Server, id string, doc []byte) {
	t.Helper()
	job, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s missing after restart", id)
	}
	got, state := job.resultBytes()
	if state != StateDone || !bytes.Equal(got, doc) {
		t.Fatalf("job %s restored %v, byte-identical %v", id, state, bytes.Equal(got, doc))
	}
}

// TestRecoveryParentFormatDataDir: a data dir of the previous format (a
// solve and a cache hit, both key-only done records, the document under
// results/) restores byte-identically; compaction inlines the document, so
// a second restart with results/ deleted still restores it.
func TestRecoveryParentFormatDataDir(t *testing.T) {
	live := newTestServer(t, Options{})
	doc, _ := submitAndWait(t, live, tinyScenario(t), SolveOptions{}).resultBytes()
	req, err := json.Marshal(SolveRequest{Scenario: tinyScenario(t)})
	if err != nil {
		t.Fatal(err)
	}
	key := requestKey(tinyScenario(t), SolveOptions{})

	dir := t.TempDir()
	writeParentDataDir(t, dir, []jrec{
		{T: recSubmit, ID: "j-1", Key: key, Req: req},
		{T: recDone, ID: "j-1", Key: key},
		{T: recSubmit, ID: "j-2", Key: key},
		{T: recDone, ID: "j-2", Key: key},
	}, map[string][]byte{key: doc})

	for life := 1; life <= 2; life++ {
		s := newTestServer(t, Options{DataDir: dir})
		requireRestored(t, s, "j-1", doc)
		requireRestored(t, s, "j-2", doc)
		m := s.MetricsSnapshot()
		if m["journal_restored_jobs"] != 2 || m["solves"] != 0 || m["cache_entries"] != 1 {
			t.Errorf("life %d: restored %d, solves %d, cache entries %d; want 2, 0, 1",
				life, m["journal_restored_jobs"], m["solves"], m["cache_entries"])
		}
		if err := shutdownNow(t, s, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		recs, _, err := readJournal(journalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.T == recDone && !bytes.Equal(r.Doc, doc) {
				t.Fatalf("life %d: compacted done record of %s does not carry its document", life, r.ID)
			}
		}
		if err := os.RemoveAll(resultsDir(dir)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryHitWhoseTwinWasEvicted: a cache hit's key-only done record
// restores byte-identically even when the solved job whose record carries
// the document was evicted from the job table before the restart, and
// still does after compaction dropped that job.
func TestRecoveryHitWhoseTwinWasEvicted(t *testing.T) {
	dir := t.TempDir()
	a := newTestServer(t, Options{DataDir: dir, MaxJobs: 1})
	solved := submitAndWait(t, a, tinyScenario(t), SolveOptions{})
	doc, _ := solved.resultBytes()
	hit := submitAndWait(t, a, tinyScenario(t), SolveOptions{})
	if !hit.status().CacheHit {
		t.Fatal("repeat was not a cache hit")
	}
	if _, ok := a.Job(solved.ID); ok {
		t.Fatal("solved twin still in the job table; the test needs it evicted")
	}
	if err := shutdownNow(t, a, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	for life := 1; life <= 2; life++ {
		s := newTestServer(t, Options{DataDir: dir, MaxJobs: 1})
		requireRestored(t, s, hit.ID, doc)
		if m := s.MetricsSnapshot(); m["solves"] != 0 || m["journal_replayed_jobs"] != 0 {
			t.Errorf("life %d: solves %d, replayed %d; want 0, 0", life, m["solves"], m["journal_replayed_jobs"])
		}
		if err := shutdownNow(t, s, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}
