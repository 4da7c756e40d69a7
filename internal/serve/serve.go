// Package serve is the solve service: an HTTP JSON API over the sagrelay
// pipeline with a bounded job queue (internal/par.Pool), a content-addressed
// LRU result cache keyed by the canonical scenario/options encoding, and
// cooperative cancellation threaded from the request context down to the
// simplex pivot loop. A repeated request is answered from the cache with a
// byte-identical result document and no solver work.
//
// With Options.DataDir set the server is also durable: every job lifecycle
// transition is appended to a JSONL write-ahead journal, finished result
// documents inline, so a crashed or killed server replays its journal on the
// next start — completed jobs are served again byte-identically without
// re-solving, and jobs that were queued or running when the process died
// are re-run to a terminal state (at-least-once).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"sagrelay/internal/admit"
	"sagrelay/internal/core"
	"sagrelay/internal/fault"
	"sagrelay/internal/incr"
	"sagrelay/internal/lru"
	"sagrelay/internal/milp"
	"sagrelay/internal/obs"
	"sagrelay/internal/par"
	"sagrelay/internal/scenario"
)

// siteJob is the fault-injection point at the top of job execution; one
// atomic load per job when injection is off.
var siteJob = fault.Register("serve.job")

// Service-level latency histograms live on the process-wide registry next
// to the solver-internal ones, so one Prometheus exposition carries both.
var (
	jobLatencySeconds = obs.Default.NewHistogram("sag_job_latency_seconds",
		"Wall-clock seconds from solve start to result (cache hits excluded).", obs.SecondsBuckets)
	queueWaitSeconds = obs.Default.NewHistogram("sag_queue_wait_seconds",
		"Seconds a job spent queued before a pool worker picked it up.", obs.SecondsBuckets)
)

// ErrShuttingDown reports a submission against a server that has begun
// graceful shutdown.
var ErrShuttingDown = errors.New("serve: shutting down")

// ErrQueueFull re-exports the pool's backpressure signal for callers that
// do not import internal/par.
var ErrQueueFull = par.ErrQueueFull

// Options tunes a Server. Zero values mean the documented defaults.
type Options struct {
	// Workers is the number of concurrent solve jobs; 0 means GOMAXPROCS.
	// (Each job may additionally parallelize across zones; see
	// SolveOptions.Workers.)
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs before
	// submissions are rejected with ErrQueueFull (default 64).
	QueueDepth int
	// CacheEntries bounds the result cache (default 256 documents).
	CacheEntries int
	// MaxJobTime is the deadline applied to jobs that do not request their
	// own (default 2m). A request's timeout_ms may shorten but not exceed it.
	MaxJobTime time.Duration
	// MaxJobs bounds the in-memory job table; the oldest finished jobs are
	// forgotten beyond it (default 1024).
	MaxJobs int
	// DataDir, when non-empty, enables the durable job journal: lifecycle
	// records and finished result documents are appended to
	// <DataDir>/journal.jsonl (<DataDir>/results/ is only read, for data dirs
	// of older servers). On startup the journal is replayed — finished jobs
	// are restored (and served without re-solving), while jobs the previous
	// process never finished are re-run. Empty means fully in-memory
	// operation, as before.
	DataDir string
	// ZoneCacheEntries bounds the zone store of coverage placements shared
	// by every job of this server (default 1024 entries).
	ZoneCacheEntries int
	// ScenarioRetention bounds the LRU of scenarios kept so POST /v1/resolve
	// can name a base by job ID or scenario hash (default 256 scenarios).
	ScenarioRetention int
	// MaxBatchItems bounds the number of items one POST /v1/batch may expand
	// to (default 1024); a larger grid is refused with ErrBatchTooLarge.
	MaxBatchItems int
	// MaxBatches bounds the in-memory batch table; the oldest finished
	// batches are forgotten beyond it (default 64).
	MaxBatches int
	// Rate is the per-client sustained submission rate in requests/second;
	// 0 (or negative) disables rate limiting. NewServer refuses a NaN or
	// infinite Rate: the token bucket would refill to NaN and refuse every
	// keyed client for good.
	Rate float64
	// Burst is the per-client token-bucket depth; 0 derives it from Rate
	// (see admit.NewRateLimiter).
	Burst int
	// FlightRecords bounds the flight recorder's retained completed-job
	// records (default obs.DefaultFlightRecords; half the capacity is
	// reserved for failures and degraded answers).
	FlightRecords int
	// Logger receives the server's structured event log (submit, start,
	// finish, rate limiting, journal replay) with job_id / batch_id /
	// client correlation fields. nil discards everything.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.ScenarioRetention <= 0 {
		o.ScenarioRetention = 256
	}
	if o.MaxJobTime <= 0 {
		o.MaxJobTime = 2 * time.Minute
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.MaxBatchItems <= 0 {
		o.MaxBatchItems = 1024
	}
	if o.MaxBatches <= 0 {
		o.MaxBatches = 64
	}
	return o
}

// Server owns the job table, worker pool, result cache and metrics. Create
// one with NewServer, expose it with Handler, stop it with Shutdown.
type Server struct {
	opts Options
	pool *par.Pool
	// cache is the content-addressed result cache: request key to the exact
	// marshaled bytes of the first solve, so a hit replays a byte-identical
	// document. Shared slices; never modified.
	cache   *lru.Cache[string, []byte]
	metrics Metrics
	// incrStores is the zone-level content-addressed store of coverage
	// placements shared by every job: full solves populate it and
	// incremental re-solves splice from it (see internal/incr).
	incrStores *incr.Stores
	// scenarios retains recently-submitted scenarios by canonical hash so
	// /v1/resolve can locate a delta's base. Stored scenarios are shared and
	// never mutated (Delta.Apply clones before changing anything).
	scenarios *lru.Cache[string, *scenario.Scenario]
	// series is the one declaration of every /metrics series; the JSON
	// document, MetricsSnapshot and the Prometheus exposition all render it
	// (see metricsRegistry).
	series *obs.Registry
	// limiter is the per-client rate limiter applied at submit.
	limiter *admit.RateLimiter
	// flight retains the last K completed-job records for postmortems (see
	// obs.FlightRecorder); log is the structured event logger (never nil —
	// a nil Options.Logger becomes obs.NopLogger).
	flight *obs.FlightRecorder
	log    *slog.Logger

	// baseCtx parents every job context; cancelAll aborts all in-flight
	// solves during forced shutdown.
	baseCtx   context.Context
	cancelAll context.CancelFunc
	// inFlight counts accepted-but-unfinished jobs for shutdown draining.
	inFlight sync.WaitGroup

	// journal is the durable WAL, nil when Options.DataDir is empty.
	journal *journal

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in submission order, oldest first
	seq      int64
	batches  map[string]*Batch
	border   []string // batch IDs in submission order, oldest first
	bseq     int64
	closed   bool
	draining bool // Shutdown has begun: cancelled jobs journal nothing and re-run
}

// NewServer starts the worker pool and returns a ready server. With
// Options.DataDir set it first replays the journal left by the previous
// process: finished jobs are restored into the job table (and result cache)
// and unfinished ones are re-submitted to the pool, so their original IDs
// answer again once NewServer returns.
func NewServer(opts Options) (*Server, error) {
	if r := opts.Rate; math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("serve: rate %v is not a finite number", r)
	}
	opts = opts.withDefaults()
	logger := opts.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		pool:       par.NewPool(opts.Workers, opts.QueueDepth),
		cache:      lru.New[string, []byte](opts.CacheEntries),
		incrStores: incr.NewStores(opts.ZoneCacheEntries),
		scenarios:  lru.New[string, *scenario.Scenario](opts.ScenarioRetention),
		limiter:    admit.NewRateLimiter(opts.Rate, opts.Burst),
		flight:     obs.NewFlightRecorder(opts.FlightRecords),
		log:        logger,
		baseCtx:    ctx,
		cancelAll:  cancel,
		jobs:       make(map[string]*Job),
		batches:    make(map[string]*Batch),
	}
	s.series = s.metricsRegistry()
	if opts.DataDir != "" {
		j, recs, corrupt, err := openJournal(opts.DataDir)
		if err != nil {
			cancel()
			s.pool.Close()
			return nil, err
		}
		if corrupt > 0 {
			s.log.Warn("journal corrupt records quarantined", "records", corrupt)
		}
		s.metrics.JournalCorrupt.Add(corrupt)
		s.journal = j
		s.replay(recs)
		s.log.Info("journal replay finished",
			"restored", s.metrics.JournalRestored.Load(),
			"replayed", s.metrics.JournalReplayed.Load())
	}
	return s, nil
}

// jpending is written journal lines awaiting durability: the position they
// end at (0 when nothing was written) and their journal span.
type jpending struct {
	pos  int64
	span *obs.Span
}

// jwrite writes records in one write when the journal is enabled, opening a
// "journal" span under parent (nil-safe) that jsync ends once the lines are
// durable. A journal failure must not fail the job — the solve result is
// still correct — so it only counts a journal error.
func (s *Server) jwrite(parent *obs.Span, recs ...jrec) jpending {
	if s.journal == nil {
		return jpending{}
	}
	sp := parent.StartChild("journal")
	pos, n, err := s.journal.write(recs...)
	if err != nil {
		s.metrics.JournalErrors.Add(1)
		sp.End()
		return jpending{}
	}
	sp.SetInt("records", int64(len(recs)))
	sp.SetInt("bytes", int64(n))
	return jpending{pos: pos, span: sp}
}

// jsync blocks until the journal's group commit has made p durable.
func (s *Server) jsync(p jpending) {
	if p.pos == 0 {
		return
	}
	led, err := s.journal.sync(p.pos)
	if err != nil {
		s.metrics.JournalErrors.Add(1)
	}
	p.span.SetBool("led", led)
	p.span.End()
}

// finishJob makes a job's terminal record durable, then finishes the job:
// nobody can see a terminal state that a crash could still take back.
func (s *Server) finishJob(job *Job, r jrec, state JobState) {
	s.jsync(s.jwrite(job.traceRoot(), r))
	job.finish(state, nil, r.Err)
}

// journalFsyncs reads the journal's fsync count; 0 without a journal.
func (s *Server) journalFsyncs() int64 {
	if s.journal == nil {
		return 0
	}
	return s.journal.fsyncs.Load()
}

// replay folds the journal records left by the previous process into the
// job table: jobs with a durable terminal state are restored as-is (done
// jobs take their result document from their own record, from an earlier
// doc-bearing record of the same key, or from an older server's results/
// file; documents that are not degraded feed the cache), and every other
// journaled job is re-submitted to the pool under a fresh deadline, keeping
// its original ID. The journal is compacted to the retained state, every
// done job with its document inline, before the re-runs start appending.
func (s *Server) replay(recs []jrec) {
	type folded struct {
		submit jrec
		term   *jrec // first terminal record, nil while the job owes a run
		// doc is a done job's document: its record's own, or for a
		// key-only record the latest cacheable document of its key
		// journaled before it; nil when there was none.
		doc       json.RawMessage
		cacheable bool
	}
	byID := make(map[string]*folded)
	latest := make(map[string]json.RawMessage) // key -> latest cacheable document so far
	var order []string
	var maxSeq, maxBSeq int64
	var batchRecs []jrec
	for _, r := range recs {
		if r.T == recBatch {
			// Batch membership records ride along; the member jobs' own
			// records carry their lifecycles, so batches fold after jobs.
			if n, err := strconv.ParseInt(strings.TrimPrefix(r.ID, "b-"), 10, 64); err == nil && n > maxBSeq {
				maxBSeq = n
			}
			batchRecs = append(batchRecs, r)
			continue
		}
		if r.T == recSubmit {
			if _, ok := byID[r.ID]; !ok {
				byID[r.ID] = &folded{submit: r}
				order = append(order, r.ID)
				if n, err := strconv.ParseInt(strings.TrimPrefix(r.ID, "j-"), 10, 64); err == nil && n > maxSeq {
					maxSeq = n
				}
			}
			continue
		}
		cacheable := r.T == recDone && len(r.Doc) > 0 && !docDegraded(r.Doc)
		if cacheable && r.Key != "" {
			latest[r.Key] = r.Doc
		}
		f, ok := byID[r.ID]
		if !ok || f.term != nil {
			continue // torn history or duplicate terminal; first wins
		}
		switch r.T {
		case recDone, recFail, recCancel:
			rc := r
			f.term = &rc
		}
		// Any other record (an older server's start or interrupt) leaves
		// the job pending: it owes a re-run.
		if r.T == recDone {
			f.doc, f.cacheable = r.Doc, cacheable
			if len(r.Doc) == 0 {
				f.doc, f.cacheable = latest[f.submit.Key], true
			}
		}
	}
	s.seq = maxSeq
	s.bseq = maxBSeq

	var pending []*submission
	termRecs := make(map[string]jrec) // synthesized terminal records for compaction
	settle := func(job *Job, state JobState, doc []byte, tr jrec) {
		job.finish(state, doc, tr.Err)
		termRecs[job.ID] = tr
	}
	restore := func(job *Job, state JobState, doc []byte, tr jrec) {
		settle(job, state, doc, tr)
		s.metrics.JournalRestored.Add(1)
	}
	for _, id := range order {
		f := byID[id]
		// Parse the journaled request up front (when one was journaled): even
		// terminally-restored jobs then carry their scenario hash and retain
		// the scenario, so they can serve as a base for /v1/resolve.
		var req SolveRequest
		haveReq := len(f.submit.Req) > 0 &&
			json.Unmarshal(f.submit.Req, &req) == nil && req.Scenario != nil
		var scHash string
		if haveReq {
			scHash = s.retainScenario(req.Scenario)
		}
		job := s.addJobLocked(id, f.submit.Key, scHash, "")

		if f.term != nil {
			switch f.term.T {
			case recFail:
				restore(job, StateFailed, nil, jrec{T: recFail, ID: id, Err: f.term.Err})
				continue
			case recCancel:
				restore(job, StateCancelled, nil, jrec{T: recCancel, ID: id, Err: f.term.Err})
				continue
			case recDone:
				doc, cacheable := []byte(f.doc), f.cacheable
				if doc == nil {
					doc, cacheable = s.journal.loadResult(job.Key)
				}
				if len(doc) > 0 {
					if cacheable {
						s.cache.Add(job.Key, doc)
					}
					restore(job, StateDone, doc, jrec{T: recDone, ID: id, Key: job.Key, Doc: doc})
					continue
				}
				// A key-only done record whose document is nowhere (an older
				// server's results file lost or deleted): re-run the job.
			}
		}

		if !haveReq {
			s.metrics.JournalErrors.Add(1)
			settle(job, StateFailed, nil, jrec{T: recFail, ID: id, Err: "journal: submit record has no readable request"})
			continue
		}
		opts := req.Options.normalized()
		cfg, err := opts.coreConfig()
		if err != nil {
			settle(job, StateFailed, nil, jrec{T: recFail, ID: id, Err: "journal: " + err.Error()})
			continue
		}
		if doc, ok := s.cache.Get(job.Key); ok {
			// An already-restored job with the same content address pays for
			// this one too. Its records are durable already, so this is a
			// restore, not a fresh answer from the cache.
			job.markCacheHit()
			restore(job, StateDone, doc, jrec{T: recDone, ID: id, Key: job.Key, Doc: doc})
			continue
		}
		pending = append(pending, &submission{sc: req.Scenario, opts: opts, cfg: cfg, job: job})
	}
	s.evictOldLocked() // NewServer is single-threaded here; lock not yet needed

	// Rebuild batches over the restored jobs: watchers re-attach to pending
	// members, so a batch whose items the crash left unfinished completes
	// once the re-runs below finish them. Restoring evicts old settled
	// batches beyond MaxBatches, as live submits do.
	for _, r := range batchRecs {
		s.restoreBatch(r.ID, r.Doc)
	}

	// Compact to the retained jobs and batches before the re-runs append
	// fresh terminal records. Batch membership records come after every
	// member job's records, matching the order appends produce.
	var compacted []jrec
	for _, id := range s.order {
		f := byID[id]
		compacted = append(compacted, f.submit)
		if tr, ok := termRecs[id]; ok {
			compacted = append(compacted, tr)
		}
	}
	for _, r := range batchRecs {
		if _, ok := s.batches[r.ID]; ok {
			compacted = append(compacted, r)
		}
	}
	if err := s.journal.compact(compacted); err != nil {
		s.metrics.JournalErrors.Add(1)
	}

	// Re-run jobs are live again: they get a fresh deadline and progress
	// state like any new submission. The recovered backlog may exceed the
	// queue depth; block rather than drop — these jobs were already accepted
	// in a previous life.
	for _, sub := range pending {
		s.armJob(sub)
		if s.enqueue(sub, s.pool.SubmitBlocking) == nil {
			s.metrics.JournalReplayed.Add(1)
		}
	}
}

// Submit validates, content-addresses and enqueues one solve request. A
// cache hit returns an already-done job without touching the solver. The
// job's journal records are durable when Submit returns. The error is
// ErrShuttingDown, ErrQueueFull, or a validation error from the scenario or
// options (the HTTP layer maps these to 503, 429 and 400).
func (s *Server) Submit(req SolveRequest) (*Job, error) {
	return s.SubmitFrom("", req)
}

// SubmitFrom is Submit with a client identity for per-client rate limiting
// (the HTTP layer passes the API key or remote address). An empty client is
// never rate limited.
func (s *Server) SubmitFrom(client string, req SolveRequest) (*Job, error) {
	return s.durable(s.submit(client, req))
}

// durable passes submit's results through once the job's submit record is
// durable.
func (s *Server) durable(job *Job, err error) (*Job, error) {
	if err == nil {
		s.jsync(jpending{pos: job.submitPos})
	}
	return job, err
}

// submit is SubmitFrom's body, shared with the resolve path and the HTTP
// handlers. A cold job's submit record is written but not yet durable: the
// caller syncs before it promises anything (see durable), and a ?wait=1
// answer needs no sync of its own, since the fsync of the job's terminal
// record covers the submit written before it.
func (s *Server) submit(client string, req SolveRequest) (*Job, error) {
	if req.Scenario == nil {
		return nil, fmt.Errorf("serve: request has no scenario")
	}
	// Rate limiting comes first: a client past its budget is refused before
	// any per-request work (even a cache hit costs API capacity).
	if err := s.limiter.Allow(client, time.Now()); err != nil {
		s.metrics.RateLimited.Add(1)
		s.log.Warn("submission rate limited", obs.LogClient, client)
		return nil, err
	}
	if err := req.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	opts := req.Options.normalized()
	cfg, err := opts.coreConfig()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	sub := s.newSubmission(client, req.Scenario, opts, cfg)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.metrics.JobsRejected.Add(1)
		return nil, ErrShuttingDown
	}
	job := s.publishLocked(sub)
	s.evictOldLocked()
	s.mu.Unlock()

	if sub.doc != nil {
		s.answerFromCache(sub)
		return job, nil
	}
	if err := s.journalSubmit(sub); err != nil {
		return nil, err
	}
	if err := s.enqueue(sub, s.pool.Submit); err != nil {
		return nil, err
	}
	s.metrics.JobsAccepted.Add(1)
	s.log.Info("job accepted", obs.LogJobID, job.ID, obs.LogClient, client, "key", job.Key)
	return job, nil
}

// removeJob unpublishes an accepted-but-never-run job from the table (see
// refuse).
func (s *Server) removeJob(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// runJob executes one queued solve on a pool worker.
func (s *Server) runJob(ctx context.Context, job *Job, sc *scenario.Scenario, cfg core.Config) {
	defer s.inFlight.Done()
	defer job.cancelNow()
	// Own the job's fate under panic: the pool's recover is only a
	// process-survival backstop and cannot settle job state (it has no idea
	// what a half-run task left behind). Without this, a panicking solve
	// would leave the job "running" forever and its done channel never
	// closed. Registered after inFlight.Done/job.cancel so it runs first.
	defer func() {
		if v := recover(); v != nil {
			pe := fault.NewPanicError("serve.job", v)
			s.metrics.JobsPanicked.Add(1)
			s.log.Error("job panicked", obs.LogJobID, job.ID, "panic", pe.Error())
			s.failJob(job, pe.Error())
		}
	}()

	if err := ctx.Err(); err != nil {
		// Cancelled or timed out while still queued.
		s.cancelJob(job, err.Error())
		return
	}
	job.markRunning()
	queueWaitSeconds.Observe(time.Since(job.created).Seconds())
	s.log.Info("job start", obs.LogJobID, job.ID)
	if p := job.progressState(); p != nil {
		// Arm the branch-and-bound progress hook: every zone solve under
		// this context reports into the job's per-zone rows. Observational
		// only — the solver's search is identical armed or disarmed.
		p.markStart()
		ctx = milp.WithProgress(ctx, p.observe)
	}
	if err := fault.Check(siteJob); err != nil {
		s.failJob(job, err.Error())
		return
	}

	// Every job records a span tree: the "job" root plus the solver's own
	// stage spans, serialized into the result document's trace field, and
	// the "journal" span of its terminal record. The root ends when the job
	// finishes; the flight record keeps the whole tree.
	tr := obs.NewTrace("job")
	tr.Root().SetAttr("job_id", job.ID)
	ctx = obs.WithTrace(ctx, tr)
	job.setTrace(tr)

	// Every job runs through the shared zone store: full solves populate
	// it, repeat or delta'd scenarios splice zone placements from it.
	s.incrStores.Wire(&cfg)

	// Bind degrade overtime to forced shutdown: once the job's deadline has
	// expired the ladder's detached context ignores ctx, so cancelAll must
	// reach it through HardStop or Shutdown would block out DegradeTimeout.
	cfg.HardStop = s.baseCtx.Done()

	start := time.Now()
	sol, err := core.Run(ctx, sc, cfg)
	elapsed := time.Since(start)
	jobLatencySeconds.Observe(elapsed.Seconds())

	if err != nil {
		if ctx.Err() != nil {
			s.cancelJob(job, err.Error())
		} else {
			s.failJob(job, err.Error())
		}
		return
	}
	doc, err := buildResultDoc(sol)
	if err != nil {
		s.failJob(job, "encode result: "+err.Error())
		return
	}
	s.metrics.Solves.Add(1)
	s.metrics.SolveMicros.Add(elapsed.Microseconds())
	s.metrics.JobsCompleted.Add(1)
	// The done record carries the document and is written before the cache
	// sees it: a hit's key-only done record always follows the bytes it
	// names in the journal, so any fsync covering the hit covers them too.
	p := s.jwrite(tr.Root(), jrec{T: recDone, ID: job.ID, Key: job.Key, Doc: doc})
	if sol.Degraded {
		// Degraded results are timing-dependent (which stage fell back
		// depends on when the deadline hit), so they may not enter the
		// content-addressed cache, which promises byte-identical replay;
		// replay reads the document's degraded field and keeps it out too.
		s.metrics.JobsDegraded.Add(1)
		s.jsync(p)
		job.finish(StateDone, doc, "")
		s.log.Warn("job done degraded", obs.LogJobID, job.ID,
			"elapsed_ms", elapsed.Milliseconds(), "degraded", true)
		s.recordFlight(job, "degraded", true, true)
		return
	}
	s.cache.Add(job.Key, doc)
	s.jsync(p)
	job.finish(StateDone, doc, "")
	s.log.Info("job done", obs.LogJobID, job.ID, "elapsed_ms", elapsed.Milliseconds())
	s.recordFlight(job, "done", false, false)
}

// failJob finishes a job as failed, with the journal and counters agreeing.
func (s *Server) failJob(job *Job, msg string) {
	s.metrics.JobsFailed.Add(1)
	s.finishJob(job, jrec{T: recFail, ID: job.ID, Err: msg}, StateFailed)
	s.log.Error("job failed", obs.LogJobID, job.ID, "error", msg)
	s.recordFlight(job, "failed", true, false)
}

// cancelJob finishes a cancelled job. During shutdown the journal records
// nothing: the client never asked for the abort, so the next start re-runs
// the job; a deliberate cancel (client DELETE or per-job deadline) is
// journaled and stays dead across restarts.
func (s *Server) cancelJob(job *Job, msg string) {
	s.metrics.JobsCancelled.Add(1)
	if s.isDraining() {
		job.finish(StateCancelled, nil, "interrupted by shutdown: "+msg)
		s.log.Info("job interrupted by shutdown", obs.LogJobID, job.ID)
		return
	}
	s.finishJob(job, jrec{T: recCancel, ID: job.ID, Err: msg}, StateCancelled)
	s.log.Info("job cancelled", obs.LogJobID, job.ID, "error", msg)
	s.recordFlight(job, "cancelled", true, false)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Job returns the job with the given ID, if it is still in the table.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all retained jobs, newest first.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		if j, ok := s.jobs[s.order[i]]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel requests cancellation of a queued or running job and returns the
// job it acted on, so callers keep a live reference even if a concurrent
// Submit evicts the table entry. The boolean reports whether the job
// exists; cancelling a finished job is a harmless no-op.
func (s *Server) Cancel(id string) (*Job, bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	j.cancelNow()
	return j, true
}

// evictOldLocked trims the oldest terminal jobs beyond Options.MaxJobs.
// Live (queued/running) jobs are never evicted, so the table can transiently
// exceed the bound under extreme load; it shrinks as jobs finish.
func (s *Server) evictOldLocked() {
	for len(s.order) > s.opts.MaxJobs {
		evicted := false
		for i, id := range s.order {
			j := s.jobs[id]
			if j == nil || j.terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// Shutdown stops accepting jobs and drains in-flight ones. If ctx expires
// first, every remaining solve is cancelled (they observe their contexts
// within a few simplex pivots) and Shutdown still waits for them to unwind
// before returning ctx's error, so no solver goroutine outlives the call.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.draining = true
	s.mu.Unlock()
	if alreadyClosed {
		s.inFlight.Wait()
		return nil
	}

	drained := make(chan struct{})
	go func() {
		s.inFlight.Wait()
		close(drained)
	}()

	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelAll()
		<-drained
	}
	s.cancelAll()
	s.pool.Close()
	if s.journal != nil {
		if cerr := s.journal.close(); cerr != nil {
			s.metrics.JournalErrors.Add(1)
		}
	}
	return err
}

// MetricsSnapshot returns the current value of every /metrics series by its
// JSON key (the HTTP layer serves the same values at /metrics).
func (s *Server) MetricsSnapshot() map[string]int64 {
	out := make(map[string]int64)
	s.series.Each(func(name string, v int64) {
		out[strings.TrimPrefix(name, seriesPrefix)] = v
	})
	return out
}
