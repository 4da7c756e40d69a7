// Package admit is the solve service's admission-control layer. Overload
// itself needs no admission decision: the service's bounded queue answers
// 429 when full, every job carries a deadline, and the degrade ladder
// answers late stages with the paper's heuristics (see internal/serve).
// On top of that path sit two mechanisms:
//
//   - Per-client token-bucket rate limiting keyed on API key or remote
//     address, rejecting with *RateLimitError (HTTP 429).
//   - A circuit breaker over the degradation ladder: when the fraction of
//     bad outcomes (failures, deadline misses, degraded solves) crosses a
//     threshold, the breaker opens and the whole server runs heuristic-first
//     (SAMC/PRO directly, skipping doomed exact attempts); after a cooldown
//     a single half-open probe job runs the exact pipeline and its outcome
//     closes or re-opens the breaker.
//
// The "admit.breaker" fault-injection site forces breaker trips, so
// overload behaviour is reproducible under internal/fault seeding. A
// panic-kind rule there is recovered at the admission boundary and
// converted into the forced trip, so chaos storms exercise the path without
// killing jobs.
package admit

import (
	"time"

	"sagrelay/internal/fault"
)

// siteBreaker is the fault-injection site that forces breaker trips. One
// atomic load per finished job when injection is off.
var siteBreaker = fault.Register("admit.breaker")

// Options tunes a Controller. Zero values mean the documented defaults.
type Options struct {
	// Rate is the per-client sustained submission rate in requests/second;
	// 0 (or negative) disables rate limiting entirely.
	Rate float64
	// Burst is the per-client token-bucket depth; 0 derives it from Rate
	// (see NewRateLimiter).
	Burst int
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
	// OnBreakerChange, when set, observes breaker state transitions (for
	// structured logging). Called with the breaker lock held; it must be
	// fast and must not call back into the Controller.
	OnBreakerChange func(from, to BreakerState)
}

func (o Options) withDefaults() Options {
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

// Controller glues the two mechanisms together for one server. All methods
// are safe for concurrent use.
type Controller struct {
	rl *RateLimiter
	br *Breaker
}

// New returns a Controller with opts' defaults applied.
func New(opts Options) *Controller {
	opts = opts.withDefaults()
	c := &Controller{
		rl: NewRateLimiter(opts.Rate, opts.Burst),
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
	return c.rl.Allow(client, time.Now())
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

// Outcome summarizes a finished solve for the breaker.
type Outcome struct {
	// Failed is a non-cancellation error or panic; DeadlineMiss a solve
	// that ran out of its deadline; Degraded a solution that used the
	// fallback ladder.
	Failed, DeadlineMiss, Degraded bool
}

// Finish feeds o to the breaker. Calling it twice for the same grant (or
// with a nil grant) is a no-op: the first outcome wins.
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
