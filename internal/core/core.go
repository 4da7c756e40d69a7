// Package core assembles the paper's primary contribution: the SNR-Aware
// Green (SAG) relay pipeline of Algorithm 9, and the DARP-style baseline
// pipelines it is evaluated against (Section IV-D).
//
// A pipeline has four stages, each with the paper's algorithm choices:
//
//	coverage            SAMC (Alg. 1) | IAC | GAC (ILPQC, eqs. 3.1-3.5)
//	coverage power      PRO (Alg. 6) | LPQC-optimal | max-power baseline
//	connectivity        MBMC (Alg. 7) | MUST (single base station, [1])
//	connectivity power  UCPO (Alg. 8) | max-power baseline
//
// SAG is {SAMC, PRO, MBMC, UCPO}. The Fig. 7 baselines "X+DARP" keep X's
// coverage but follow [1] upstream: MUST to a single base station with all
// relays at maximum power and no power optimization on either tier.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sagrelay/internal/lower"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
	"sagrelay/internal/upper"
)

// CoverageMethod selects the lower-tier placement algorithm.
type CoverageMethod int

// Coverage methods. (Enums start at 1 so the zero value is invalid.)
const (
	CoverSAMC CoverageMethod = iota + 1
	CoverIAC
	CoverGAC
)

// String renders the method name as used in the paper's figures.
func (m CoverageMethod) String() string {
	switch m {
	case CoverSAMC:
		return "SAMC"
	case CoverIAC:
		return "IAC"
	case CoverGAC:
		return "GAC"
	default:
		return fmt.Sprintf("CoverageMethod(%d)", int(m))
	}
}

// PowerMethod selects a power-allocation algorithm for either tier.
type PowerMethod int

// Power methods. (Enums start at 1 so the zero value is invalid.)
const (
	// PowerBaseline keeps every relay at PMax.
	PowerBaseline PowerMethod = iota + 1
	// PowerGreen runs the tier's green algorithm (PRO below, UCPO above).
	PowerGreen
	// PowerOptimal solves the tier's exact optimum (LPQC; lower tier only).
	PowerOptimal
)

// String renders the method.
func (m PowerMethod) String() string {
	switch m {
	case PowerBaseline:
		return "baseline"
	case PowerGreen:
		return "green"
	case PowerOptimal:
		return "optimal"
	default:
		return fmt.Sprintf("PowerMethod(%d)", int(m))
	}
}

// ConnectivityMethod selects the upper-tier tree algorithm.
type ConnectivityMethod int

// Connectivity methods. (Enums start at 1 so the zero value is invalid.)
const (
	// ConnMBMC attaches every coverage relay toward its nearest base
	// station (Alg. 7).
	ConnMBMC ConnectivityMethod = iota + 1
	// ConnMUST forces a single base station (the baseline of [1]).
	ConnMUST
)

// String renders the method.
func (m ConnectivityMethod) String() string {
	switch m {
	case ConnMBMC:
		return "MBMC"
	case ConnMUST:
		return "MUST"
	default:
		return fmt.Sprintf("ConnectivityMethod(%d)", int(m))
	}
}

// Config selects and tunes the pipeline stages.
type Config struct {
	// Coverage selects the lower-tier algorithm; zero means SAMC.
	Coverage CoverageMethod
	// CoveragePower selects the lower-tier power stage; zero means green
	// (PRO).
	CoveragePower PowerMethod
	// Connectivity selects the upper-tier algorithm; zero means MBMC.
	Connectivity ConnectivityMethod
	// ConnectivityPower selects the upper-tier power stage; zero means
	// green (UCPO).
	ConnectivityPower PowerMethod
	// MUSTBaseStation is the forced base station index for ConnMUST.
	MUSTBaseStation int
	// SAMC tunes the SAMC heuristic.
	SAMC lower.SAMCOptions
	// ILP tunes the IAC/GAC formulations.
	ILP lower.ILPOptions
	// Workers bounds zone-level solve concurrency across the pipeline
	// stages; 0 means runtime.GOMAXPROCS(0). It fills SAMC.Workers and
	// ILP.Workers unless those are set individually. Results are identical
	// for any worker count.
	Workers int
	// Degrade enables the graceful-degradation ladder: a pipeline stage
	// that fails or blows its deadline is retried once after RetryBackoff,
	// then replaced by the paper's heuristic for that stage (coverage
	// ILP -> SAMC, optimal power -> PRO, green power -> max-power
	// baseline). A solution produced this way is tagged Degraded with the
	// reason. Caller-initiated cancellation (context.Canceled) never
	// degrades — it aborts, as before.
	Degrade bool
	// RetryBackoff is the pause before the single retry (default 100ms).
	RetryBackoff time.Duration
	// DegradeTimeout bounds retry/fallback work when the original context
	// deadline has already expired (default 30s).
	DegradeTimeout time.Duration
	// HeuristicFirst downgrades the exact stages to the paper's heuristics
	// before the pipeline runs: coverage IAC/GAC become SAMC and the
	// optimal lower-tier power stage (LPQC) becomes PRO. The solve service
	// sets it while its overload circuit breaker is open, so doomed exact
	// attempts are skipped instead of timing out into the same fallbacks.
	// A downgrade that actually changed the configuration tags the solution
	// Degraded (keeping it out of byte-identical result caches); a request
	// that was already heuristic-only is unaffected.
	HeuristicFirst bool
	// HardStop, when non-nil, force-aborts degrade overtime: the ladder's
	// detached overtime context — which deliberately outlives the caller's
	// *deadline* — is additionally cancelled when this channel closes, so
	// overtime work never outlives a forced shutdown. The solve service
	// passes its shutdown signal here; a nil channel preserves the plain
	// deadline-detached behaviour.
	HardStop <-chan struct{}
}

func (c Config) withDefaults() Config {
	if c.Coverage == 0 {
		c.Coverage = CoverSAMC
	}
	if c.SAMC.Workers == 0 {
		c.SAMC.Workers = c.Workers
	}
	if c.ILP.Workers == 0 {
		c.ILP.Workers = c.Workers
	}
	if c.CoveragePower == 0 {
		c.CoveragePower = PowerGreen
	}
	if c.Connectivity == 0 {
		c.Connectivity = ConnMBMC
	}
	if c.ConnectivityPower == 0 {
		c.ConnectivityPower = PowerGreen
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.DegradeTimeout <= 0 {
		c.DegradeTimeout = 30 * time.Second
	}
	return c
}

// Solution is a fully solved deployment: both tiers plus power allocations.
type Solution struct {
	// Feasible is false when the coverage stage could not satisfy every
	// subscriber; the remaining fields are then zero.
	Feasible bool
	// Coverage is the lower-tier placement.
	Coverage *lower.Result
	// CoveragePower allocates power to the coverage relays.
	CoveragePower *lower.PowerAllocation
	// Connectivity is the upper-tier plan.
	Connectivity *upper.Result
	// ConnectivityPower allocates power to the connectivity relays.
	ConnectivityPower *upper.PowerAllocation
	// PL, PH and PTotal are the paper's lower-tier, upper-tier and total
	// power costs (Alg. 9, Steps 3-6).
	PL, PH, PTotal float64
	// Elapsed is the end-to-end wall-clock time.
	Elapsed time.Duration
	// Method describes the requested pipeline, e.g. "SAG" or "SAMC+DARP".
	// When Degraded is true one or more stages actually ran a heuristic
	// substitute instead; DegradedReason says which and why.
	Method string
	// Degraded reports an approximate, timing-dependent solution: either a
	// stage fell back to a heuristic after the exact algorithm failed or
	// blew its deadline (Config.Degrade), or a zone's branch-and-bound
	// search was truncated by its wall-clock time limit and contributed a
	// load-dependent incumbent (lower.Result.Truncated). Degraded results
	// must never enter deterministic, content-addressed caches.
	Degraded bool
	// DegradedReason records each degraded stage and its cause.
	DegradedReason string
	// Trace is the span tree of this solve when the caller attached one to
	// the context (obs.WithTrace); nil otherwise. It carries per-stage
	// timings and attributes (zone counts, B&B nodes, degradation markers)
	// and serializes via (*obs.Trace).Doc.
	Trace *obs.Trace
}

// TotalRelays returns the number of placed relays across both tiers.
func (s *Solution) TotalRelays() int {
	if !s.Feasible {
		return 0
	}
	return s.Coverage.NumRelays() + s.Connectivity.NumRelays()
}

// ErrInfeasible mirrors lower.ErrInfeasible at the pipeline level.
var ErrInfeasible = lower.ErrInfeasible

// SAG runs Algorithm 9 with the default stages (SAMC + PRO + MBMC + UCPO):
// L_low <- SAMC; P_L <- PRO; L_high <- MBMC; P_H <- UCPO; P_total = P_L+P_H.
// Cancellation behaves as in Run.
func SAG(ctx context.Context, sc *scenario.Scenario, cfg Config) (*Solution, error) {
	cfg = cfg.withDefaults()
	sol, err := Run(ctx, sc, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Coverage == CoverSAMC && cfg.CoveragePower == PowerGreen &&
		cfg.Connectivity == ConnMBMC && cfg.ConnectivityPower == PowerGreen {
		sol.Method = "SAG"
	}
	return sol, nil
}

// DARP runs an "X+DARP" baseline pipeline (Section IV-D): coverage by the
// given method, then the upstream approach of [1] — MUST to a single base
// station with every relay at maximum power on both tiers. Cancellation
// behaves as in Run.
func DARP(ctx context.Context, sc *scenario.Scenario, coverage CoverageMethod, cfg Config) (*Solution, error) {
	cfg.Coverage = coverage
	cfg.CoveragePower = PowerBaseline
	cfg.Connectivity = ConnMUST
	cfg.ConnectivityPower = PowerBaseline
	sol, err := Run(ctx, sc, cfg)
	if err != nil {
		return nil, err
	}
	sol.Method = coverage.String() + "+DARP"
	return sol, nil
}

// traced wraps a stage function so every invocation — first attempt, retry
// and fallback each get their own — records a child span named after the
// stage. A nil fn (no fallback) stays nil so the ladder's "has a fallback"
// checks keep working.
func traced[T any](name string, fn func(context.Context) (T, error)) func(context.Context) (T, error) {
	if fn == nil {
		return nil
	}
	return func(c context.Context) (T, error) {
		c, span := obs.StartSpan(c, name)
		v, err := fn(c)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
		return v, err
	}
}

// Run executes an arbitrary pipeline configuration under ctx. The context
// is threaded through every stage down to the branch-and-bound node loops
// and simplex pivot iterations, so a client disconnect, per-job deadline or
// server shutdown cancels an in-flight solve promptly; the returned error
// then wraps ctx.Err(). Cancellation never changes the result of a solve
// that completes: the checks only abort work, they do not reorder it.
//
// With Config.Degrade set, a stage that fails or exceeds the deadline is
// retried once and then replaced by the paper's heuristic for that stage
// (see Config.Degrade); the solution is then tagged Degraded. A context
// cancelled by the caller (context.Canceled) still aborts unconditionally.
//
// When ctx carries an obs trace, Run opens a "solve" span with one child
// per pipeline stage (coverage, coverage_power, connectivity,
// connectivity_power; fallback runs get a "_fallback" suffix) and attaches
// the trace to Solution.Trace. Instrumentation never reorders work, so
// traced and untraced solves are bit-identical.
func Run(ctx context.Context, sc *scenario.Scenario, cfg Config) (*Solution, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Validate method selections before any stage runs: a configuration
	// error must fail fast, never be retried or masked by a heuristic
	// fallback.
	switch cfg.Coverage {
	case CoverSAMC, CoverIAC, CoverGAC:
	default:
		return nil, fmt.Errorf("core: unknown coverage method %v", cfg.Coverage)
	}
	switch cfg.CoveragePower {
	case PowerBaseline, PowerGreen, PowerOptimal:
	default:
		return nil, fmt.Errorf("core: unknown coverage power method %v", cfg.CoveragePower)
	}
	switch cfg.Connectivity {
	case ConnMBMC, ConnMUST:
	default:
		return nil, fmt.Errorf("core: unknown connectivity method %v", cfg.Connectivity)
	}
	switch cfg.ConnectivityPower {
	case PowerBaseline, PowerGreen:
	case PowerOptimal:
		return nil, errors.New("core: optimal power is only defined for the lower tier (LPQC)")
	default:
		return nil, fmt.Errorf("core: unknown connectivity power method %v", cfg.ConnectivityPower)
	}

	// Heuristic-first mode rewrites the exact stages to their heuristic
	// substitutes up front — after validation (a bad method must still fail
	// fast) and before the span opens (the method attribute reports what
	// actually runs). Each real downgrade is noted so the solution carries
	// the Degraded tag exactly when the answer differs from the requested
	// pipeline's.
	var heuristicNotes []string
	if cfg.HeuristicFirst {
		if cfg.Coverage == CoverIAC || cfg.Coverage == CoverGAC {
			heuristicNotes = append(heuristicNotes,
				"coverage: "+cfg.Coverage.String()+" -> SAMC")
			cfg.Coverage = CoverSAMC
		}
		if cfg.CoveragePower == PowerOptimal {
			heuristicNotes = append(heuristicNotes, "coverage power: LPQC -> PRO")
			cfg.CoveragePower = PowerGreen
		}
	}

	// The solve span opens before the ladder captures ctx: the ladder's
	// detached overtime context is built with context.WithoutCancel, which
	// preserves values, so even overtime fallback work attaches its stage
	// spans under this root.
	ctx, span := obs.StartSpan(ctx, "solve")
	defer span.End()
	span.SetAttr("method", pipelineName(cfg))

	l := newLadder(ctx, cfg)
	defer l.close()

	// Coverage: the exact ILP formulations degrade to the paper's SAMC
	// heuristic; SAMC itself has no cheaper substitute (it still gets the
	// single retry for transient faults).
	coverRun := traced("coverage", func(c context.Context) (*lower.Result, error) {
		switch cfg.Coverage {
		case CoverSAMC:
			return lower.SAMC(c, sc, cfg.SAMC)
		case CoverIAC:
			return lower.IAC(c, sc, cfg.ILP)
		case CoverGAC:
			return lower.GAC(c, sc, cfg.ILP)
		default:
			return nil, fmt.Errorf("core: unknown coverage method %v", cfg.Coverage)
		}
	})
	var coverFallback func(context.Context) (*lower.Result, error)
	if cfg.Coverage != CoverSAMC {
		coverFallback = traced("coverage_fallback", func(c context.Context) (*lower.Result, error) {
			return lower.SAMC(c, sc, cfg.SAMC)
		})
	}
	cover, coverReason, err := degradeRun(l, coverRun, coverFallback)
	if err != nil {
		return nil, fmt.Errorf("core: coverage: %w", err)
	}
	sol := &Solution{Method: pipelineName(cfg)}
	for _, note := range heuristicNotes {
		sol.degrade(note, "heuristic-first mode (overload circuit breaker)")
	}
	sol.degrade("coverage: "+cfg.Coverage.String()+" -> SAMC", coverReason)
	if cover.Truncated {
		// A zone's branch-and-bound was cut short by the wall-clock zone time
		// limit: the incumbent is approximate and load-dependent, so the
		// solution must carry the Degraded tag that keeps it out of the
		// byte-identical result cache (see internal/serve).
		sol.degrade("coverage: "+cfg.Coverage.String(),
			"zone time limit truncated branch and bound; incumbent is load-dependent")
	}
	if !cover.Feasible {
		sol.Coverage = cover
		sol.Elapsed = time.Since(start)
		finishSolveSpan(span, sol)
		return sol, nil
	}

	// Coverage power: the exact LPQC optimum degrades to PRO, PRO to the
	// max-power baseline (always feasible by construction).
	powerRun := traced("coverage_power", func(c context.Context) (*lower.PowerAllocation, error) {
		switch cfg.CoveragePower {
		case PowerBaseline:
			return lower.BaselinePower(sc, cover), nil
		case PowerGreen:
			return lower.PRO(c, sc, cover)
		case PowerOptimal:
			return lower.OptimalPower(c, sc, cover)
		default:
			return nil, fmt.Errorf("core: unknown coverage power method %v", cfg.CoveragePower)
		}
	})
	var powerFallback func(context.Context) (*lower.PowerAllocation, error)
	var powerLadder string
	switch cfg.CoveragePower {
	case PowerOptimal:
		powerLadder = "coverage power: LPQC -> PRO"
		powerFallback = traced("coverage_power_fallback", func(c context.Context) (*lower.PowerAllocation, error) {
			return lower.PRO(c, sc, cover)
		})
	case PowerGreen:
		powerLadder = "coverage power: PRO -> baseline"
		powerFallback = traced("coverage_power_fallback", func(context.Context) (*lower.PowerAllocation, error) {
			return lower.BaselinePower(sc, cover), nil
		})
	}
	coverPower, powerReason, err := degradeRun(l, powerRun, powerFallback)
	if err != nil {
		return nil, fmt.Errorf("core: coverage power: %w", err)
	}
	sol.degrade(powerLadder, powerReason)

	// Connectivity: MBMC/MUST are cheap tree constructions with no cheaper
	// substitute, so the ladder has no fallback here — only the retry (which
	// detaches from a blown deadline) applies.
	connRun := traced("connectivity", func(c context.Context) (*upper.Result, error) {
		switch cfg.Connectivity {
		case ConnMBMC:
			return upper.MBMC(c, sc, cover)
		case ConnMUST:
			return upper.MUST(c, sc, cover, cfg.MUSTBaseStation)
		default:
			return nil, fmt.Errorf("core: unknown connectivity method %v", cfg.Connectivity)
		}
	})
	conn, _, err := degradeRun(l, connRun, nil)
	if err != nil {
		return nil, fmt.Errorf("core: connectivity: %w", err)
	}

	// Connectivity power: UCPO degrades to the max-power baseline.
	connPowerRun := traced("connectivity_power", func(c context.Context) (*upper.PowerAllocation, error) {
		switch cfg.ConnectivityPower {
		case PowerBaseline:
			return upper.BaselinePower(sc, conn), nil
		case PowerGreen:
			return upper.UCPO(c, sc, cover, conn)
		case PowerOptimal:
			return nil, errors.New("core: optimal power is only defined for the lower tier (LPQC)")
		default:
			return nil, fmt.Errorf("core: unknown connectivity power method %v", cfg.ConnectivityPower)
		}
	})
	var connPowerFallback func(context.Context) (*upper.PowerAllocation, error)
	if cfg.ConnectivityPower == PowerGreen {
		connPowerFallback = traced("connectivity_power_fallback", func(context.Context) (*upper.PowerAllocation, error) {
			return upper.BaselinePower(sc, conn), nil
		})
	}
	connPower, connPowerReason, err := degradeRun(l, connPowerRun, connPowerFallback)
	if err != nil {
		return nil, fmt.Errorf("core: connectivity power: %w", err)
	}
	sol.degrade("connectivity power: UCPO -> baseline", connPowerReason)

	sol.Feasible = true
	sol.Coverage = cover
	sol.CoveragePower = coverPower
	sol.Connectivity = conn
	sol.ConnectivityPower = connPower
	sol.PL = coverPower.Total
	sol.PH = connPower.Total
	sol.PTotal = sol.PL + sol.PH
	sol.Elapsed = time.Since(start)
	finishSolveSpan(span, sol)
	return sol, nil
}

// finishSolveSpan stamps the solve outcome onto the root solve span and
// hands the trace to the solution for serialization. Nil-safe when tracing
// is disarmed.
func finishSolveSpan(span *obs.Span, sol *Solution) {
	span.SetBool("feasible", sol.Feasible)
	if sol.Degraded {
		span.SetBool("degraded", true)
		span.SetAttr("degraded_reason", sol.DegradedReason)
	}
	if sol.Coverage != nil && sol.Coverage.Truncated {
		span.SetBool("truncated", true)
	}
	sol.Trace = span.Trace()
}

func pipelineName(cfg Config) string {
	return fmt.Sprintf("%s/%s+%s/%s",
		cfg.Coverage, cfg.CoveragePower, cfg.Connectivity, cfg.ConnectivityPower)
}
