package serve

// The batch solve engine behind POST /v1/batch: one request fans out into
// many jobs — an explicit scenario list, or a scenario template plus a
// parameter grid expanded through internal/experiment — with per-item cache
// lookup (an item answered before is done at submit), per-item journaling (a
// crashed batch resumes exactly its unfinished items), and NDJSON streaming
// of results as they complete, so memory stays bounded by the stream instead
// of accumulating the full result set.
//
// Ordering and backpressure: every item is published as a job up
// front (IDs, journal records, cancellation handles all exist before the
// call returns), but items enter the worker pool through a feeder goroutine
// that blocks on queue space — a thousand-item batch never trips the pool's
// ErrQueueFull backpressure that protects interactive /v1/solve traffic,
// it just feeds as capacity frees up. Cancelling the batch (client DELETE,
// or a mid-stream disconnect of the submitting request) stops the feeder
// and cancels still-queued items before they cost any solver work.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sagrelay/internal/experiment"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// batchSchema versions every batch wire document: the status doc, the NDJSON
// stream header, and the journal membership record.
const batchSchema = "sagbatch/1"

// ErrBatchTooLarge reports a batch whose item list (or grid expansion)
// exceeds Options.MaxBatchItems.
var ErrBatchTooLarge = errors.New("serve: batch exceeds the server's item limit")

// batchItemLatencySeconds tracks wall-clock from batch acceptance to each
// item's terminal state (rejected items excluded — they never start).
var batchItemLatencySeconds = obs.Default.NewHistogram("sag_batch_item_latency_seconds",
	"Seconds from batch acceptance to batch item completion.", obs.SecondsBuckets)

// BatchRequest is the wire shape of POST /v1/batch: exactly one of Items
// (explicit scenarios) or Grid (template + swept dimensions), plus one set
// of solve options shared by every item.
type BatchRequest struct {
	Items   []BatchItemRequest `json:"items,omitempty"`
	Grid    *BatchGrid         `json:"grid,omitempty"`
	Options SolveOptions       `json:"options"`
}

// BatchItemRequest is one explicit batch item.
type BatchItemRequest struct {
	Scenario *scenario.Scenario `json:"scenario"`
}

// BatchGrid is the template+grid form: the server generates the scenarios,
// so a sweep's wire size is a few hundred bytes no matter how many cells it
// expands to. Seeds follow the sagsweep rule (see experiment.GridSpec), so a
// grid run server-side expands to bit-identical scenarios as the same grid
// run locally.
type BatchGrid struct {
	Template GridTemplate         `json:"template"`
	Dims     []experiment.GridDim `json:"dims"`
	// Runs is the number of seeded repetitions per grid cell (default 1).
	Runs int `json:"runs,omitempty"`
	// Seed is the base seed for the sagsweep seed rule.
	Seed int64 `json:"seed,omitempty"`
}

// GridTemplate is the JSON form of the scenario generator template; zero
// fields keep the generator's documented defaults.
type GridTemplate struct {
	FieldSide float64 `json:"field_side"`
	NumSS     int     `json:"num_ss"`
	NumBS     int     `json:"num_bs"`
	DistMin   float64 `json:"dist_min,omitempty"`
	DistMax   float64 `json:"dist_max,omitempty"`
	SNRdB     float64 `json:"snr_db,omitempty"`
	PMax      float64 `json:"pmax,omitempty"`
	NMax      float64 `json:"nmax,omitempty"`
}

func (t GridTemplate) genConfig() scenario.GenConfig {
	return scenario.GenConfig{
		FieldSide: t.FieldSide,
		NumSS:     t.NumSS,
		NumBS:     t.NumBS,
		DistMin:   t.DistMin,
		DistMax:   t.DistMax,
		SNRdB:     t.SNRdB,
		PMax:      t.PMax,
		NMax:      t.NMax,
	}
}

// Batch tracks one accepted POST /v1/batch through its items' lifecycles.
// The item slice is immutable after publication; per-item mutable state
// lives on the member jobs.
type Batch struct {
	// ID is the batch identifier ("b-<seq>"), unique per server instance.
	ID string
	// Created is the acceptance time.
	Created time.Time
	// items holds one entry per expanded item, index-aligned with the wire
	// order. Immutable after publication.
	items []*BatchItem
	// done is closed when every item is terminal.
	done chan struct{}
	// trace is the batch span tree ("batch" root, one batch.item child per
	// accepted item); nil for journal-restored batches.
	trace *obs.Trace

	mu        sync.Mutex
	remaining int
	cancelled bool
}

// BatchItem is one expanded batch entry: a published job, or — only in a
// batch restored from the journal — an inline rejection. Grid batches carry
// provenance: the point/run indices and swept dimension values.
type BatchItem struct {
	Index  int
	Point  int
	Run    int
	Values []float64
	// Job is the member job; nil when Reject is set.
	Job *Job
	// Reject is the inline rejection of a restored item: its member job is
	// no longer retained (code not_found), or the journal carries one (see
	// batchRecDoc). nil when Job is set.
	Reject *APIError
	span   *obs.Span
}

// batchRecDoc is the journal membership record (jrec.Doc of a recBatch
// line): which jobs belong to the batch. Member lifecycles live in the jobs'
// own records. Err is only read: journals written while the service still
// shed batch items carry the item's inline rejection there instead of a job.
type batchRecDoc struct {
	Schema string         `json:"schema"`
	Items  []batchRecItem `json:"items"`
}

type batchRecItem struct {
	Item   int       `json:"item"`
	Job    string    `json:"job,omitempty"`
	Err    *APIError `json:"error,omitempty"`
	Point  int       `json:"point,omitempty"`
	Run    int       `json:"run,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// batchPrep is one expanded, validated item before publication.
type batchPrep struct {
	sc     *scenario.Scenario
	values []float64
	point  int
	run    int
}

// expandBatch turns the request into validated scenarios. Validation errors
// fail the whole batch: a client that mis-specifies its grid wants to know
// now, not after half the grid solved.
func (s *Server) expandBatch(req BatchRequest) ([]batchPrep, error) {
	switch {
	case len(req.Items) > 0 && req.Grid != nil:
		return nil, fmt.Errorf("serve: batch request has both items and grid")
	case len(req.Items) > 0:
		if len(req.Items) > s.opts.MaxBatchItems {
			return nil, fmt.Errorf("%w: %d items over the %d-item limit",
				ErrBatchTooLarge, len(req.Items), s.opts.MaxBatchItems)
		}
		preps := make([]batchPrep, 0, len(req.Items))
		for i, it := range req.Items {
			if it.Scenario == nil {
				return nil, fmt.Errorf("serve: batch item %d has no scenario", i)
			}
			if err := it.Scenario.Validate(); err != nil {
				return nil, fmt.Errorf("serve: batch item %d: %w", i, err)
			}
			preps = append(preps, batchPrep{sc: it.Scenario})
		}
		return preps, nil
	case req.Grid != nil:
		spec := experiment.GridSpec{
			Base: req.Grid.Template.genConfig(),
			Dims: req.Grid.Dims,
			Runs: req.Grid.Runs,
			Seed: req.Grid.Seed,
		}
		points, err := spec.Points()
		if err != nil {
			return nil, err
		}
		runs := req.Grid.Runs
		if runs <= 0 {
			runs = 1
		}
		if points*runs > s.opts.MaxBatchItems {
			return nil, fmt.Errorf("%w: grid expands to %d items over the %d-item limit",
				ErrBatchTooLarge, points*runs, s.opts.MaxBatchItems)
		}
		cells, err := spec.Expand()
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		preps := make([]batchPrep, 0, len(cells))
		for _, c := range cells {
			sc, err := scenario.Generate(c.Gen)
			if err != nil {
				return nil, fmt.Errorf("serve: grid cell %d: %w", c.Index, err)
			}
			preps = append(preps, batchPrep{sc: sc, values: c.Values, point: c.Point, run: c.Run})
		}
		return preps, nil
	default:
		return nil, fmt.Errorf("serve: batch request has neither items nor grid")
	}
}

// SubmitBatch validates, expands, admits and publishes one batch request.
func (s *Server) SubmitBatch(req BatchRequest) (*Batch, error) {
	return s.SubmitBatchFrom("", req)
}

// SubmitBatchFrom is SubmitBatch with a client identity. Rate limiting is
// charged once per batch, not per item: the batch API exists precisely so
// grid clients stop paying per-request overhead.
func (s *Server) SubmitBatchFrom(client string, req BatchRequest) (*Batch, error) {
	if err := s.limiter.Allow(client, time.Now()); err != nil {
		s.metrics.RateLimited.Add(1)
		s.log.Warn("batch submission rate limited", obs.LogClient, client)
		return nil, err
	}
	preps, err := s.expandBatch(req)
	if err != nil {
		return nil, err
	}
	opts := req.Options.normalized()
	cfg, err := opts.coreConfig()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	// Pre-publication pass: content address and cache lookup per item.
	items := make([]*BatchItem, len(preps))
	subs := make([]*submission, len(preps))
	for i, p := range preps {
		items[i] = &BatchItem{Index: i, Point: p.point, Run: p.run, Values: p.values}
		subs[i] = s.newSubmission(client, p.sc, opts, cfg)
	}

	// Publish atomically: all member jobs and the batch appear together, or
	// nothing does (shutdown).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.metrics.JobsRejected.Add(1)
		return nil, ErrShuttingDown
	}
	s.bseq++
	b := &Batch{
		ID:      "b-" + strconv.FormatInt(s.bseq, 10),
		Created: time.Now(),
		done:    make(chan struct{}),
		items:   items,
	}
	for i, sub := range subs {
		items[i].Job = s.publishLocked(sub)
	}
	s.evictOldLocked()
	s.batches[b.ID] = b
	s.border = append(s.border, b.ID)
	s.evictOldBatchesLocked()
	s.mu.Unlock()

	s.metrics.BatchesTotal.Add(1)
	s.metrics.BatchItemsTotal.Add(int64(len(b.items)))

	tr := obs.NewTrace("batch")
	tr.Root().SetAttr("batch_id", b.ID)
	tr.Root().SetInt("items", int64(len(b.items)))
	b.trace = tr

	rec := batchRecDoc{Schema: batchSchema}
	var feed, hits []*submission
	var last jpending // the latest journal write; its sync covers every earlier one
	for i, it := range b.items {
		rec.Items = append(rec.Items, batchRecItem{Item: it.Index, Job: it.Job.ID, Point: it.Point, Run: it.Run, Values: it.Values})
		sp := tr.Root().StartChild("batch.item")
		sp.SetInt("item", int64(it.Index))
		sp.SetAttr("job_id", it.Job.ID)
		it.span = sp

		sub := subs[i]
		if sub.doc != nil {
			if p := s.journalHit(sub); p.pos > 0 {
				last = p
			}
			hits = append(hits, sub)
			continue
		}
		if s.journalSubmit(sub) != nil {
			continue // refused: the item settles as cancelled
		}
		if sub.job.submitPos > 0 {
			last = jpending{pos: sub.job.submitPos}
		}
		s.metrics.JobsAccepted.Add(1)
		feed = append(feed, sub)
	}
	// Membership record after every member's submit record, so replay folds
	// jobs first and the batch only references known IDs.
	if s.journal != nil {
		if docBytes, err := json.Marshal(rec); err != nil {
			s.metrics.JournalErrors.Add(1)
		} else if p := s.jwrite(nil, jrec{T: recBatch, ID: b.ID, Doc: docBytes}); p.pos > 0 {
			last = p
		}
	}
	// One fsync makes every member record and the batch record durable
	// before any item is answered or the batch is.
	s.jsync(last)
	for _, sub := range hits {
		s.finishHit(sub)
	}
	s.log.Info("batch accepted", obs.LogBatchID, b.ID, obs.LogClient, client,
		"items", len(b.items), "cache_hits", len(hits))

	b.arm()
	s.inFlight.Add(1)
	go s.feedBatch(b, feed)
	return b, nil
}

// feedBatch enqueues admitted items in order, blocking on queue space so a
// large batch exerts backpressure on itself instead of tripping ErrQueueFull.
// A cancelled batch stops feeding: unfed items finish as cancelled without
// ever reaching the pool — zero solver work.
func (s *Server) feedBatch(b *Batch, feed []*submission) {
	defer s.inFlight.Done()
	for _, sub := range feed {
		if b.isCancelled() {
			sub.job.cancelNow()
			s.cancelJob(sub.job, "batch cancelled")
			continue
		}
		s.enqueue(sub, s.pool.SubmitBlocking) // a refused item settles as cancelled
	}
}

// arm counts live members and attaches one watcher per member job; with no
// members (a restored batch whose items were all rejected) the batch is
// born finished.
func (b *Batch) arm() {
	n := 0
	for _, it := range b.items {
		if it.Job != nil {
			n++
		}
	}
	b.mu.Lock()
	b.remaining = n
	b.mu.Unlock()
	if n == 0 {
		b.trace.Finish()
		close(b.done)
		return
	}
	for _, it := range b.items {
		if it.Job != nil {
			go b.watch(it)
		}
	}
}

// watch waits one member job out, ends its span, observes its latency, and
// closes the batch when it is the last one standing.
func (b *Batch) watch(it *BatchItem) {
	start := time.Now()
	<-it.Job.done
	batchItemLatencySeconds.Observe(time.Since(start).Seconds())
	if sp := it.span; sp != nil {
		st := it.Job.status()
		sp.SetAttr("state", string(st.State))
		sp.SetBool("cache_hit", st.CacheHit)
		sp.End()
	}
	b.mu.Lock()
	b.remaining--
	last := b.remaining == 0
	b.mu.Unlock()
	if last {
		b.trace.Finish()
		close(b.done)
	}
}

func (b *Batch) isCancelled() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cancelled
}

// finished reports whether every item is terminal.
func (b *Batch) finished() bool {
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// settled reports whether every member job is terminal.
func (b *Batch) settled() bool {
	for _, it := range b.items {
		if it.Job != nil && !it.Job.terminal() {
			return false
		}
	}
	return true
}

// Done returns a channel closed when every item is terminal.
func (b *Batch) Done() <-chan struct{} { return b.done }

// CancelPending cancels every item that has not started solving: the feeder
// stops feeding, and still-queued jobs are cancelled before a worker picks
// them up. Items already running are left to finish — this is the mid-stream
// disconnect semantic, where completed work is worth keeping.
func (b *Batch) CancelPending() {
	b.mu.Lock()
	b.cancelled = true
	b.mu.Unlock()
	for _, it := range b.items {
		if it.Job == nil {
			continue
		}
		if it.Job.status().State == StateQueued {
			it.Job.cancelNow()
		}
	}
}

// Cancel cancels every unfinished item, running ones included — the DELETE
// /v1/batch/{id} semantic.
func (b *Batch) Cancel() {
	b.mu.Lock()
	b.cancelled = true
	b.mu.Unlock()
	for _, it := range b.items {
		if it.Job != nil && !it.Job.terminal() {
			it.Job.cancelNow()
		}
	}
}

// Items returns the batch's items (immutable slice; do not modify).
func (b *Batch) Items() []*BatchItem { return b.items }

// BatchByID returns the batch with the given ID, if retained.
func (s *Server) BatchByID(id string) (*Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[id]
	return b, ok
}

// evictOldBatchesLocked trims the oldest settled batches beyond
// Options.MaxBatches; a batch with a live member job is never evicted. It
// asks the member jobs rather than b.Done, which closes only once the
// watchers have run, so replay evicts exactly what a live submit would.
func (s *Server) evictOldBatchesLocked() {
	for len(s.border) > s.opts.MaxBatches {
		evicted := false
		for i, id := range s.border {
			b := s.batches[id]
			if b == nil || b.settled() {
				delete(s.batches, id)
				s.border = append(s.border[:i], s.border[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// restoreBatch rebuilds one journaled batch over the already-restored job
// table during replay, and evicts old batches as a live submit does.
// Watchers re-attach, so a batch whose members the crash left unfinished
// completes when the replayed jobs do. Runs on the single-threaded
// NewServer path; no locking needed.
func (s *Server) restoreBatch(id string, doc json.RawMessage) {
	var d batchRecDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		s.metrics.JournalErrors.Add(1)
		return
	}
	b := &Batch{ID: id, Created: time.Now(), done: make(chan struct{})}
	for _, ri := range d.Items {
		it := &BatchItem{Index: ri.Item, Point: ri.Point, Run: ri.Run, Values: ri.Values}
		switch {
		case ri.Err != nil:
			it.Reject = ri.Err
		default:
			if j, ok := s.jobs[ri.Job]; ok {
				it.Job = j
			} else {
				it.Reject = &APIError{Code: CodeNotFound,
					Message: "journal: member job " + ri.Job + " not retained"}
			}
		}
		b.items = append(b.items, it)
	}
	b.arm()
	s.batches[id] = b
	s.border = append(s.border, id)
	s.evictOldBatchesLocked()
}

// --- wire documents -------------------------------------------------------

// batchStatusDoc is the JSON shape of GET /v1/batch/{id} (and the 202 body
// of an async POST /v1/batch).
type batchStatusDoc struct {
	Schema         string            `json:"schema"`
	ID             string            `json:"id"`
	State          string            `json:"state"` // running | done
	Cancelled      bool              `json:"cancelled,omitempty"`
	Created        string            `json:"created"`
	ItemsTotal     int               `json:"items_total"`
	ItemsDone      int               `json:"items_done"`
	ItemsFailed    int               `json:"items_failed"`
	ItemsCancelled int               `json:"items_cancelled"`
	ItemsRejected  int               `json:"items_rejected"`
	ItemsPending   int               `json:"items_pending"`
	Items          []batchItemStatus `json:"items"`
	// Trace is the batch span tree, present once the batch finishes.
	Trace *obs.SpanDoc `json:"trace,omitempty"`
}

type batchItemStatus struct {
	Item     int       `json:"item"`
	Point    int       `json:"point,omitempty"`
	Run      int       `json:"run,omitempty"`
	Values   []float64 `json:"values,omitempty"`
	Job      string    `json:"job,omitempty"`
	State    string    `json:"state"`
	CacheHit bool      `json:"cache_hit,omitempty"`
	Error    *APIError `json:"error,omitempty"`
}

// batchCounts tallies item states for status and trailer documents.
type batchCounts struct {
	done, failed, cancelled, rejected, pending int
}

func (b *Batch) counts() batchCounts {
	var c batchCounts
	for _, it := range b.items {
		switch {
		case it.Job == nil:
			c.rejected++
		default:
			switch st := it.Job.status().State; st {
			case StateDone:
				c.done++
			case StateFailed:
				c.failed++
			case StateCancelled:
				c.cancelled++
			default:
				c.pending++
			}
		}
	}
	return c
}

func (b *Batch) statusDoc() batchStatusDoc {
	c := b.counts()
	doc := batchStatusDoc{
		Schema:         batchSchema,
		ID:             b.ID,
		State:          "running",
		Cancelled:      b.isCancelled(),
		Created:        b.Created.UTC().Format(time.RFC3339Nano),
		ItemsTotal:     len(b.items),
		ItemsDone:      c.done,
		ItemsFailed:    c.failed,
		ItemsCancelled: c.cancelled,
		ItemsRejected:  c.rejected,
		ItemsPending:   c.pending,
		Items:          make([]batchItemStatus, 0, len(b.items)),
	}
	if b.finished() {
		doc.State = "done"
		doc.Trace = b.trace.Doc()
	}
	for _, it := range b.items {
		doc.Items = append(doc.Items, it.statusEntry())
	}
	return doc
}

func (it *BatchItem) statusEntry() batchItemStatus {
	e := batchItemStatus{Item: it.Index, Point: it.Point, Run: it.Run, Values: it.Values}
	if it.Job == nil {
		e.State = "rejected"
		e.Error = it.Reject
		return e
	}
	st := it.Job.status()
	e.Job = st.ID
	e.State = string(st.State)
	e.CacheHit = st.CacheHit
	if st.Error != "" {
		e.Error = &APIError{Code: itemErrorCode(st.State), Message: st.Error}
	}
	return e
}

// itemErrorCode maps a terminal-with-error item state onto its stream code.
func itemErrorCode(st JobState) string {
	if st == StateCancelled {
		return CodeCancelled
	}
	return CodeSolveFailed
}

// --- NDJSON streaming -----------------------------------------------------

// batchStreamHeader is the first NDJSON line of a batch stream.
type batchStreamHeader struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	Items  int    `json:"items"`
}

// batchStreamItem is one per-item NDJSON line, written when the item is
// terminal. Result carries the member job's result document verbatim — the
// same bytes a /v1/solve of that scenario would serve.
type batchStreamItem struct {
	Item   int             `json:"item"`
	Job    string          `json:"job,omitempty"`
	State  string          `json:"state"`
	Point  int             `json:"point,omitempty"`
	Run    int             `json:"run,omitempty"`
	Values []float64       `json:"values,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *APIError       `json:"error,omitempty"`
}

// batchStreamTrailer is the final NDJSON line. Complete is false when the
// stream was a no-wait snapshot with items still pending.
type batchStreamTrailer struct {
	Done           bool `json:"done"`
	Complete       bool `json:"complete"`
	ItemsTotal     int  `json:"items_total"`
	ItemsDone      int  `json:"items_done"`
	ItemsFailed    int  `json:"items_failed"`
	ItemsCancelled int  `json:"items_cancelled"`
	ItemsRejected  int  `json:"items_rejected"`
	ItemsPending   int  `json:"items_pending,omitempty"`
}

func (it *BatchItem) streamLine() batchStreamItem {
	line := batchStreamItem{Item: it.Index, Point: it.Point, Run: it.Run, Values: it.Values}
	if it.Job == nil {
		line.State = "rejected"
		line.Error = it.Reject
		return line
	}
	st := it.Job.status()
	line.Job = st.ID
	line.State = string(st.State)
	switch st.State {
	case StateDone:
		doc, _ := it.Job.resultBytes()
		line.Result = json.RawMessage(doc)
	case StateFailed, StateCancelled:
		line.Error = &APIError{Code: itemErrorCode(st.State), Message: st.Error}
	}
	return line
}

// streamBatch writes the NDJSON stream: header, rejected and already-
// terminal items immediately, then — with wait — the rest as they complete,
// then the trailer. With owner set (the submitting POST ...?wait=1 request),
// a mid-stream client disconnect cancels all unstarted items: the client
// that wanted the results is gone, so queued work would be pure waste, while
// items already solving run to completion and stay fetchable.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, b *Batch, wait, owner bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	writeLine := func(v any) bool {
		js, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := w.Write(append(js, '\n')); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	writeLine(batchStreamHeader{Schema: batchSchema, ID: b.ID, Items: len(b.items)})

	// One fan-in goroutine per still-pending item; the channel is per
	// request, so any number of concurrent readers can stream one batch.
	ch := make(chan int, len(b.items))
	waiting := 0
	for i, it := range b.items {
		if it.Job == nil || it.Job.terminal() {
			writeLine(it.streamLine())
			continue
		}
		if !wait {
			continue
		}
		waiting++
		go func(i int, j *Job) {
			select {
			case <-j.done:
				ch <- i
			case <-r.Context().Done():
			}
		}(i, it.Job)
	}
	for waiting > 0 {
		select {
		case i := <-ch:
			writeLine(b.items[i].streamLine())
			waiting--
		case <-r.Context().Done():
			if owner {
				b.CancelPending()
			}
			return
		}
	}
	c := b.counts()
	writeLine(batchStreamTrailer{
		Done:           true,
		Complete:       c.pending == 0,
		ItemsTotal:     len(b.items),
		ItemsDone:      c.done,
		ItemsFailed:    c.failed,
		ItemsCancelled: c.cancelled,
		ItemsRejected:  c.rejected,
		ItemsPending:   c.pending,
	})
}

// --- HTTP handlers --------------------------------------------------------

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&req); err != nil {
		s.writeAPIError(w, err)
		return
	}
	b, err := s.SubmitBatchFrom(clientKey(r), req)
	if err != nil {
		s.writeAPIError(w, err)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		s.streamBatch(w, r, b, true, true)
		return
	}
	writeJSON(w, http.StatusAccepted, b.statusDoc())
}

func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	b, ok := s.BatchByID(r.PathValue("id"))
	if !ok {
		s.writeNotFound(w, "no such batch")
		return
	}
	writeJSON(w, http.StatusOK, b.statusDoc())
}

func (s *Server) handleBatchResults(w http.ResponseWriter, r *http.Request) {
	b, ok := s.BatchByID(r.PathValue("id"))
	if !ok {
		s.writeNotFound(w, "no such batch")
		return
	}
	s.streamBatch(w, r, b, r.URL.Query().Get("wait") == "1", false)
}

func (s *Server) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	b, ok := s.BatchByID(r.PathValue("id"))
	if !ok {
		s.writeNotFound(w, "no such batch")
		return
	}
	b.Cancel()
	writeJSON(w, http.StatusOK, b.statusDoc())
}
