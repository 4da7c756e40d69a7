// Package admit is the solve service's admission-control and
// overload-resilience layer. It decides, before a job consumes a queue
// slot, whether the server can still honor the job's deadline — and, once
// a worker picks the job up, under which regime it runs. Concurrency itself
// is the worker pool's to bound; admission never holds a worker back.
//
//   - Deadline-aware load shedding: an EWMA cost model per scenario-size
//     bucket estimates solve time at submit; a job whose remaining deadline
//     cannot cover estimated queue wait plus solve is rejected with a typed
//     *ShedError (HTTP 503 + Retry-After) instead of wasting solver time on
//     an answer nobody will read.
//   - Per-client token-bucket rate limiting keyed on API key or remote
//     address, rejecting with *RateLimitError (HTTP 429).
//   - A circuit breaker over the degradation ladder: when the fraction of
//     bad outcomes (failures, deadline misses, degraded solves) crosses a
//     threshold, the breaker opens and the whole server runs heuristic-first
//     (SAMC/PRO directly, skipping doomed exact attempts); after a cooldown
//     a single half-open probe job runs the exact pipeline and its outcome
//     closes or re-opens the breaker.
//
// Two fault-injection sites make overload behaviour reproducible under
// internal/fault seeding: "admit.shed" forces shed decisions and
// "admit.breaker" forces breaker trips. Panic-kind rules at either site are
// recovered at the admission boundary and converted into the forced
// decision, so chaos storms exercise the paths without killing jobs.
package admit

import (
	"fmt"
	"time"

	"sagrelay/internal/fault"
	"sagrelay/internal/obs"
)

// Fault-injection sites. One atomic load each when injection is off.
var (
	siteShed    = fault.Register("admit.shed")
	siteBreaker = fault.Register("admit.breaker")
)

// admitEstSeconds records the estimated queue-wait + solve seconds behind
// every shedding decision, next to the measured sag_job_latency_seconds it
// is meant to predict.
var admitEstSeconds = obs.Default.NewHistogram("sag_admit_est_seconds",
	"Estimated queue-wait + solve seconds at admission time (shed decisions included).",
	obs.SecondsBuckets)

// Options tunes a Controller. Zero values mean the documented defaults.
type Options struct {
	// Rate is the per-client sustained submission rate in requests/second;
	// 0 (or negative) disables rate limiting entirely.
	Rate float64
	// Burst is the per-client token-bucket depth; 0 derives it from Rate
	// (at least 1 token, so a conforming client is never starved).
	Burst int
	// MaxClients bounds the rate limiter's per-client bucket table (LRU
	// evicted; default 4096). An evicted client re-enters with a full
	// bucket, which errs toward admitting.
	MaxClients int
	// BreakerThreshold is the bad-outcome fraction over the sliding window
	// that trips the breaker into heuristic-first mode (default 0.5; any
	// value > 1 means the breaker never trips organically).
	BreakerThreshold float64
	// BreakerWindow is the sliding outcome window size (default 16).
	BreakerWindow int
	// BreakerMinSamples is the minimum number of windowed outcomes before
	// the threshold is evaluated (default 8), so a single early failure
	// cannot trip a cold server.
	BreakerMinSamples int
	// BreakerCooldown is how long the breaker stays open before it admits
	// a half-open probe job (default 5s).
	BreakerCooldown time.Duration
	// DisableShed turns deadline-aware shedding off (rate limiting and the
	// breaker are unaffected). Forced sheds via the admit.shed fault site
	// still fire.
	DisableShed bool
	// OnBreakerChange, when set, observes breaker state transitions (for
	// structured logging). Called with the breaker lock held; it must be
	// fast and must not call back into the Controller.
	OnBreakerChange func(from, to BreakerState)
}

func (o Options) withDefaults() Options {
	if o.Burst <= 0 {
		o.Burst = int(o.Rate)
		if o.Burst < 1 {
			o.Burst = 1
		}
	}
	if o.MaxClients <= 0 {
		o.MaxClients = 4096
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 0.5
	}
	if o.BreakerWindow <= 0 {
		o.BreakerWindow = 16
	}
	if o.BreakerMinSamples <= 0 {
		o.BreakerMinSamples = 8
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	return o
}

// ShedError is the typed rejection of a job whose deadline cannot cover the
// estimated queue wait plus solve time (or that an armed admit.shed fault
// rejected). The HTTP layer maps it to 503 with a Retry-After header.
type ShedError struct {
	// Reason is non-empty for forced (fault-injected) sheds.
	Reason string
	// EstSolve and EstWait are the cost-model estimates behind an organic
	// shed; Deadline is the budget they exceeded.
	EstSolve, EstWait, Deadline time.Duration
	// RetryAfter suggests when the backlog should have drained.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	if e.Reason != "" {
		return "admit: load shed: " + e.Reason
	}
	return fmt.Sprintf("admit: load shed: estimated queue wait %v + solve %v exceeds deadline %v",
		e.EstWait.Round(time.Millisecond), e.EstSolve.Round(time.Millisecond), e.Deadline)
}

// RateLimitError is the typed rejection of a client that exhausted its
// token bucket. The HTTP layer maps it to 429 with a Retry-After header.
type RateLimitError struct {
	Client     string
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("admit: client %s rate limited; retry in %v", e.Client, e.RetryAfter.Round(time.Millisecond))
}

// Decision carries the cost-model estimates behind an admitted job, for the
// job's admit span. Zero for cache hits and cold-model admissions.
type Decision struct {
	EstSolve time.Duration
	EstWait  time.Duration
}

// Controller glues the three mechanisms together for one server. All methods
// are safe for concurrent use.
type Controller struct {
	opts Options
	cost *CostModel
	rl   *RateLimiter
	br   *Breaker
}

// New returns a Controller with opts' defaults applied.
func New(opts Options) *Controller {
	opts = opts.withDefaults()
	c := &Controller{
		opts: opts,
		cost: NewCostModel(),
		rl:   NewRateLimiter(opts.Rate, opts.Burst, opts.MaxClients),
		br: NewBreaker(opts.BreakerThreshold, opts.BreakerWindow,
			opts.BreakerMinSamples, opts.BreakerCooldown),
	}
	if opts.OnBreakerChange != nil {
		c.br.SetOnChange(opts.OnBreakerChange)
	}
	return c
}

// AllowClient applies per-client rate limiting. An empty client (internal
// callers: journal replay, in-process Submit callers and tests) is never
// limited. The returned error, if any, is a *RateLimitError.
func (c *Controller) AllowClient(client string) error {
	if client == "" {
		return nil
	}
	retry, ok := c.rl.Allow(client, time.Now())
	if ok {
		return nil
	}
	return &RateLimitError{Client: client, RetryAfter: retry}
}

// Admit makes the deadline-aware shedding decision for a cache-missing
// submission: sizeClass buckets the scenario (SizeClass), queued is the
// current queue depth, workers the number of solves the server runs at
// once, and deadline the job's effective time budget. The returned error,
// if any, is a *ShedError; a cold cost model admits everything.
func (c *Controller) Admit(sizeClass, queued, workers int, deadline time.Duration) (Decision, error) {
	// A lone submission has no batch siblings ahead of it.
	return c.AdmitBatch(sizeClass, queued, workers, 0, deadline)
}

// AdmitBatch is Admit for one item of a batch submission. Batch items are
// admitted together, before any of them holds a queue slot, so the queue
// depth alone under-counts the work ahead of item k: its k-1 admitted
// siblings are invisible to the pool until the batch feeder enqueues them.
// batchAhead is the summed EstSolve of those earlier, admitted-but-not-yet-
// queued siblings; it is divided by the same worker count as the generic
// backlog, so the estimate stays honest for both the first item of a batch
// (batchAhead 0 — identical to Admit) and the hundredth. Each item is shed
// individually: a returned *ShedError rejects this item only, never the
// batch.
func (c *Controller) AdmitBatch(sizeClass, queued, workers int, batchAhead, deadline time.Duration) (Decision, error) {
	var d Decision
	if err := fireSite(siteShed); err != nil {
		return d, &ShedError{Reason: "fault injection: " + err.Error(), RetryAfter: time.Second}
	}
	if c.opts.DisableShed {
		return d, nil
	}
	est, mean, ok := c.cost.Estimate(sizeClass)
	if !ok {
		return d, nil
	}
	// Queue wait: the backlog drains at roughly mean solve time / workers.
	if workers < 1 {
		workers = 1
	}
	wait := (mean*float64(queued) + batchAhead.Seconds()) / float64(workers)
	d.EstSolve = time.Duration(est * float64(time.Second))
	d.EstWait = time.Duration(wait * float64(time.Second))
	admitEstSeconds.Observe(est + wait)
	if deadline > 0 && d.EstSolve+d.EstWait > deadline {
		retry := d.EstWait
		if retry < time.Second {
			retry = time.Second
		}
		return d, &ShedError{
			EstSolve:   d.EstSolve,
			EstWait:    d.EstWait,
			Deadline:   deadline,
			RetryAfter: retry,
		}
	}
	return d, nil
}

// Grant is the token a worker holds while its solve runs: the breaker mode
// it was issued under. Finish settles it; a second Finish is a no-op, so
// callers can install a deferred backstop Finish for panic paths.
type Grant struct {
	heuristicFirst bool
	probe          bool
	done           chan struct{} // closed by the first Finish
}

// HeuristicFirst reports whether the breaker issued this job in
// heuristic-first mode (exact stages downgraded before the pipeline runs).
func (g *Grant) HeuristicFirst() bool { return g.heuristicFirst }

// Probe reports whether this job is the breaker's half-open probe.
func (g *Grant) Probe() bool { return g.probe }

// Begin is called by a worker about to run a job: it asks the breaker for
// the execution mode.
func (c *Controller) Begin() *Grant {
	hf, probe := c.br.Allow(time.Now())
	return &Grant{heuristicFirst: hf, probe: probe, done: make(chan struct{})}
}

// Outcome summarizes a finished solve for the cost model and the breaker.
type Outcome struct {
	// SizeClass is the scenario's cost-model bucket (SizeClass).
	SizeClass int
	// Seconds is the solve's wall-clock time.
	Seconds float64
	// Failed is a non-cancellation error or panic; DeadlineMiss a solve
	// that ran out of its deadline; Degraded a solution that used the
	// fallback ladder.
	Failed, DeadlineMiss, Degraded bool
}

// Finish feeds o to the cost model and the breaker. Calling it twice for
// the same grant (or with a nil grant) is a no-op: the first outcome wins.
func (c *Controller) Finish(g *Grant, o Outcome) {
	if g == nil {
		return
	}
	select {
	case <-g.done:
		return
	default:
		close(g.done)
	}
	bad := o.Failed || o.DeadlineMiss || o.Degraded
	if !o.Failed && !g.heuristicFirst && o.Seconds > 0 {
		// Heuristic-first solves are deliberately cheap and would drag the
		// estimate for the exact pipeline down; keep them out of the model.
		c.cost.Observe(o.SizeClass, o.Seconds)
	}
	now := time.Now()
	if err := fireSite(siteBreaker); err != nil {
		c.br.ForceTrip(now)
		if g.probe {
			c.br.AbortProbe()
		}
		return
	}
	if g.probe {
		c.br.Record(bad, true, now)
		return
	}
	if !g.heuristicFirst {
		c.br.Record(bad, false, now)
	}
}

// BreakerState returns the breaker position as a gauge value: 0 closed,
// 1 open, 2 half-open.
func (c *Controller) BreakerState() int64 { return int64(c.br.State()) }

// BreakerTrips returns how many times the breaker has opened.
func (c *Controller) BreakerTrips() int64 { return c.br.Trips() }

// fireSite runs a fault check with panic-kind rules recovered into plain
// errors: an injected panic at an admission site must become the forced
// decision, never a dead job.
func fireSite(site string) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fault.NewPanicError(site, v)
		}
	}()
	return fault.Check(site)
}
