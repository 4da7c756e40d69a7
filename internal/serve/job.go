package serve

import (
	"context"
	"sync"
	"time"

	"sagrelay/internal/obs"
)

// JobState is the lifecycle of a submitted solve.
type JobState string

// Job states. A job moves queued -> running -> one of the terminal states;
// cache hits jump straight to done.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Job tracks one submitted solve through its lifecycle. All mutable fields
// are guarded by mu; snapshots for the HTTP layer go through status().
type Job struct {
	// ID is the job identifier ("j-<seq>"), unique per server instance.
	ID string
	// Key is the content address of (scenario, options).
	Key string
	// ScenarioHash is the canonical hash of the job's scenario alone —
	// the handle /v1/resolve uses to name this job's scenario as a delta
	// base. Empty for journal-restored jobs whose request bytes were not
	// retained. Immutable after publication.
	ScenarioHash string
	// incr is non-nil for jobs submitted through Resolve: the dirty-set
	// plan runJob consults. Immutable after publication.
	incr *incrMeta
	// client is the submitting client's rate-limit identity (empty for
	// internal callers), carried into logs and the flight record.
	// Immutable after publication.
	client string
	// progress accumulates live solver telemetry for /v1/jobs/{id}/progress;
	// nil for cache hits and journal-restored terminal jobs. Immutable
	// after publication.
	progress *jobProgress

	// done is closed exactly once when the job reaches a terminal state;
	// synchronous waiters (POST /v1/solve?wait=1) select on it.
	done chan struct{}

	mu sync.Mutex
	// cancel aborts the job's solve context; nil for jobs that never run a
	// solve. It is mu-guarded because Server.Cancel (HTTP DELETE) may read it
	// from another goroutine while the job is armed; use setCancel/cancelNow.
	cancel   context.CancelFunc
	state    JobState
	err      string
	cacheHit bool
	created  time.Time
	started  time.Time
	finished time.Time
	result   []byte
	// trace is the finished solve's span-tree document, retained for the
	// flight record (the result document embeds its own copy).
	trace *obs.SpanDoc
}

// jobSchema is the version tag of the job status document, serialized
// first-keyed like the metrics document.
const jobSchema = "sagjob/1"

// jobStatus is the JSON shape of GET /v1/jobs/{id}.
type jobStatus struct {
	Schema       string   `json:"schema"`
	ID           string   `json:"id"`
	Key          string   `json:"key"`
	ScenarioHash string   `json:"scenario_hash,omitempty"`
	State        JobState `json:"state"`
	CacheHit     bool     `json:"cache_hit"`
	Error        string   `json:"error,omitempty"`
	Created      string   `json:"created"`
	// ElapsedMS is queue+solve wall-clock so far (or total once terminal).
	ElapsedMS int64 `json:"elapsed_ms"`
	// The incremental fields appear on jobs submitted through /v1/resolve:
	// how many of the mutated scenario's zones the planner found dirty.
	TotalZones    int     `json:"total_zones,omitempty"`
	DirtyZones    int     `json:"dirty_zones,omitempty"`
	DirtyFraction float64 `json:"dirty_fraction,omitempty"`
}

func (j *Job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	st := jobStatus{
		Schema:       jobSchema,
		ID:           j.ID,
		Key:          j.Key,
		ScenarioHash: j.ScenarioHash,
		State:        j.state,
		CacheHit:     j.cacheHit,
		Error:        j.err,
		Created:      j.created.UTC().Format(time.RFC3339Nano),
		ElapsedMS:    end.Sub(j.created).Milliseconds(),
	}
	if m := j.incr; m != nil {
		st.TotalZones = m.plan.TotalZones
		st.DirtyZones = m.plan.DirtyZones
		st.DirtyFraction = m.plan.DirtyFraction
	}
	return st
}

// resultBytes returns the finished document, or nil when the job is not
// done yet. The slice is shared; callers must not modify it.
func (j *Job) resultBytes() ([]byte, JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state
}

// Done returns a channel closed when the job reaches a terminal state —
// the library-client equivalent of POST ...?wait=1.
func (j *Job) Done() <-chan struct{} { return j.done }

// ResultDocument returns the finished result document alongside the job's
// current state; the document is nil unless the state is StateDone. The
// bytes are shared and must not be modified.
func (j *Job) ResultDocument() ([]byte, JobState) { return j.resultBytes() }

func (j *Job) markRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = time.Now()
}

func (j *Job) finish(state JobState, result []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCancelled {
		return // already terminal; first finish wins
	}
	j.state = state
	j.result = result
	j.err = errMsg
	j.finished = time.Now()
	close(j.done)
}

// markCacheHit flags a job answered with a document it did not solve.
func (j *Job) markCacheHit() {
	j.mu.Lock()
	j.cacheHit = true
	j.mu.Unlock()
}

// setCancel installs the job's cancel function.
func (j *Job) setCancel(fn context.CancelFunc) {
	j.mu.Lock()
	j.cancel = fn
	j.mu.Unlock()
}

// cancelNow invokes the job's cancel function, if one is installed. It is
// safe to call concurrently and repeatedly; cancelling a finished job is a
// harmless no-op.
func (j *Job) cancelNow() {
	j.mu.Lock()
	fn := j.cancel
	j.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// progressState returns the job's live progress accumulator, nil when the
// job never ran a solver (cache hit, restored terminal job).
func (j *Job) progressState() *jobProgress { return j.progress }

// setTrace retains the finished solve's span-tree document.
func (j *Job) setTrace(doc *obs.SpanDoc) {
	j.mu.Lock()
	j.trace = doc
	j.mu.Unlock()
}

// flightInfo snapshots the fields the flight recorder needs.
func (j *Job) flightInfo() (errMsg string, cacheHit bool, created, started, finished time.Time, trace *obs.SpanDoc) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err, j.cacheHit, j.created, j.started, j.finished, j.trace
}

// terminal reports whether the job has reached a final state.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
}
