package serve

// The one job-submission path, shared by /v1/solve, /v1/resolve, batch items
// and journal re-runs: newSubmission (content address, scenario retention,
// cache lookup), publishLocked (job table, deadline), then either
// answerFromCache for a hit or journalSubmit and enqueue for a miss. Rate
// limiting, validation, batch publication under one lock and whether
// enqueueing may block stay with each caller.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"sagrelay/internal/core"
	"sagrelay/internal/obs"
	"sagrelay/internal/par"
	"sagrelay/internal/scenario"
)

// submission carries one job through the submission path.
type submission struct {
	client string
	sc     *scenario.Scenario
	opts   SolveOptions // normalized
	cfg    core.Config
	key    string
	hash   string
	doc    []byte // the cached result document; non-nil exactly on a hit
	job    *Job
	ctx    context.Context // the job's deadline; nil on a hit
}

// jobTimeout is a job's deadline: Options.MaxJobTime, shortened (never
// lengthened) by the request's timeout_ms. The comparison is in whole
// milliseconds, before any conversion, so a timeout_ms too large for a
// time.Duration falls back to MaxJobTime instead of wrapping negative.
func (s *Server) jobTimeout(opts SolveOptions) time.Duration {
	timeout := s.opts.MaxJobTime
	if ms := opts.TimeoutMS; ms > 0 && ms <= int64(timeout/time.Millisecond) {
		timeout = time.Duration(ms) * time.Millisecond
	}
	return timeout
}

// retainScenario keeps sc for /v1/resolve under its canonical hash and
// returns the hash.
func (s *Server) retainScenario(sc *scenario.Scenario) string {
	hash := sc.CanonicalHash()
	s.scenarios.Add(hash, sc)
	return hash
}

// newSubmission content-addresses a validated request and looks it up in
// the result cache. The scenario is retained before its job is visible: a
// client that reads the accepted job's scenario_hash may immediately
// resolve against it.
func (s *Server) newSubmission(client string, sc *scenario.Scenario, opts SolveOptions, cfg core.Config) *submission {
	sub := &submission{
		client: client,
		sc:     sc,
		opts:   opts,
		cfg:    cfg,
		key:    requestKey(sc, opts),
		hash:   s.retainScenario(sc),
	}
	sub.doc, _ = s.cache.Get(sub.key)
	return sub
}

// addJobLocked builds a queued job and publishes it in the table, newest
// last. s.mu must be held (replay runs before the server is shared).
func (s *Server) addJobLocked(id, key, scHash, client string) *Job {
	job := &Job{
		ID:           id,
		Key:          key,
		ScenarioHash: scHash,
		client:       client,
		done:         make(chan struct{}),
		state:        StateQueued,
		created:      time.Now(),
	}
	s.jobs[id] = job
	s.order = append(s.order, id)
	return job
}

// publishLocked makes sub the server's next job. A job bound for the solver
// is armed before s.mu is released, so a concurrent DELETE /v1/jobs/{id} can
// never observe it without a cancel function. s.mu must be held.
func (s *Server) publishLocked(sub *submission) *Job {
	s.seq++
	sub.job = s.addJobLocked("j-"+strconv.FormatInt(s.seq, 10), sub.key, sub.hash, sub.client)
	if sub.doc == nil {
		s.armJob(sub)
	}
	return sub.job
}

// armJob readies sub's job for the solver: its deadline context and its live
// progress state.
func (s *Server) armJob(sub *submission) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.jobTimeout(sub.opts))
	sub.ctx = ctx
	sub.job.setCancel(cancel)
	sub.job.progress = newJobProgress()
}

// answerFromCache finishes a published cache-hit job with the cached
// document. Cached documents always have a durable twin under results/ when
// the journal is on, so submit+done suffices for replay.
func (s *Server) answerFromCache(sub *submission) {
	job := sub.job
	s.metrics.JobsAccepted.Add(1)
	s.metrics.CacheHits.Add(1)
	s.metrics.JobsCompleted.Add(1)
	job.markCacheHit()
	s.jappend(jrec{T: recSubmit, ID: job.ID, Key: job.Key})
	s.jappend(jrec{T: recDone, ID: job.ID, Key: job.Key})
	job.finish(StateDone, sub.doc, "")
	s.log.Info("job done from cache", obs.LogJobID, job.ID, obs.LogClient, job.client, "key", job.Key)
	s.recordFlight(job, "cache_hit", false, false)
}

// journalSubmit counts a published cache-miss job and journals its full
// request before the pool can run it: the WAL must know about a job before
// any of its later records, and before the client is told it was accepted.
func (s *Server) journalSubmit(sub *submission) error {
	s.metrics.CacheMisses.Add(1)
	if s.journal == nil {
		return nil
	}
	reqBytes, err := json.Marshal(SolveRequest{Scenario: sub.sc, Options: sub.opts})
	if err != nil {
		return s.refuse(sub.job, fmt.Errorf("serve: encode request for journal: %w", err))
	}
	s.jappend(jrec{T: recSubmit, ID: sub.job.ID, Key: sub.job.Key, Req: reqBytes})
	return nil
}

// enqueue hands a published, journaled job to the worker pool through
// submit: the pool's non-blocking Submit for /v1/solve, whose full queue is
// the client's 429, or SubmitBlocking for batch feeding and journal re-runs,
// whose jobs were already accepted and wait for queue space instead. A
// refused job is rolled back by refuse.
func (s *Server) enqueue(sub *submission, submit func(func()) error) error {
	s.inFlight.Add(1)
	if err := submit(func() { s.runJob(sub.ctx, sub.job, sub.sc, sub.cfg) }); err != nil {
		s.inFlight.Done()
		return s.refuse(sub.job, err)
	}
	return nil
}

// refuse rolls back a published job the server will not run: it is
// unpublished, journaled as cancelled so replay does not resurrect it,
// finished so whoever holds it (a batch watcher) settles, and counted as
// rejected. It returns the error to report, with a closed pool reported as
// ErrShuttingDown.
func (s *Server) refuse(job *Job, err error) error {
	job.cancelNow()
	s.removeJob(job.ID)
	msg := "rejected: " + err.Error()
	s.jappend(jrec{T: recCancel, ID: job.ID, Err: msg})
	job.finish(StateCancelled, nil, msg)
	s.metrics.JobsRejected.Add(1)
	if errors.Is(err, par.ErrPoolClosed) {
		return ErrShuttingDown
	}
	return err
}
