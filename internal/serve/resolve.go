package serve

import (
	"errors"
	"fmt"

	"sagrelay/internal/incr"
	"sagrelay/internal/scenario"
)

// ErrNoBase reports a resolve whose base scenario cannot be located: the
// referenced job does not exist (or predates scenario retention), or no
// retained scenario carries the given hash. The HTTP layer maps it to 404.
var ErrNoBase = errors.New("serve: base scenario not found")

// ResolveRequest is the body of POST /v1/resolve: a delta against a base
// scenario the server has already seen, identified either by the job that
// solved it or by its canonical scenario hash. The mutated scenario is
// solved through the zone-level stores, so unchanged zones splice from
// cache and the result is byte-identical to solving the mutated scenario
// cold.
type ResolveRequest struct {
	// BaseJob names a previous job whose scenario is the delta's base.
	BaseJob string `json:"base_job,omitempty"`
	// BaseScenarioHash addresses the base scenario directly (the
	// scenario_hash of any previous job); ignored when BaseJob is set.
	BaseScenarioHash string `json:"base_scenario_hash,omitempty"`
	// Delta is the typed mutation list applied to the base scenario.
	Delta *scenario.Delta `json:"delta"`
	// Options are the solve options for the mutated scenario. They need not
	// match the base job's options, but zone reuse is maximal when they do.
	Options SolveOptions `json:"options"`
	// Fast opts into warm-start seeding of dirty-zone solves from the base
	// scenario's cached incumbents and simplex bases. Fast results may land
	// on a different (equally good) optimum, so they forfeit the
	// byte-identity guarantee and are never cached.
	Fast bool `json:"fast,omitempty"`
}

// incrMeta rides on a resolve's Job from Resolve to runJob: the dirty-set
// plan (for the incr span and fast-mode seeds) and the fast flag that keeps
// the result out of every cache. Immutable after the job is published.
type incrMeta struct {
	baseHash string
	plan     *incr.Plan
	fast     bool
}

// Resolve applies a delta to a retained base scenario and submits the
// mutated scenario as a regular job. The journal sees a plain solve request
// (replay needs no base), the whole-result cache is consulted as usual (a
// no-op delta is a pure cache hit), and the zone stores make the solve
// incremental. Errors wrap ErrNoBase for a missing base, scenario.ErrBadDelta
// / scenario.ErrUnknownEntity for a malformed or dangling delta.
func (s *Server) Resolve(req ResolveRequest) (*Job, error) {
	return s.ResolveFrom("", req)
}

// ResolveFrom is Resolve with a client identity for per-client rate
// limiting; an empty client is never limited.
func (s *Server) ResolveFrom(client string, req ResolveRequest) (*Job, error) {
	if req.Delta == nil {
		return nil, fmt.Errorf("serve: %w: resolve request has no delta", scenario.ErrBadDelta)
	}
	hash := req.BaseScenarioHash
	if req.BaseJob != "" {
		j, ok := s.Job(req.BaseJob)
		if !ok {
			return nil, fmt.Errorf("%w: no such job %q", ErrNoBase, req.BaseJob)
		}
		hash = j.ScenarioHash
		if hash == "" {
			return nil, fmt.Errorf("%w: job %q has no retained scenario", ErrNoBase, req.BaseJob)
		}
	}
	if hash == "" {
		return nil, fmt.Errorf("serve: %w: resolve request names neither base_job nor base_scenario_hash", scenario.ErrBadDelta)
	}
	base, ok := s.scenarios.Get(hash)
	if !ok {
		return nil, fmt.Errorf("%w: no retained scenario with hash %s", ErrNoBase, hash)
	}

	mutated, err := req.Delta.Apply(base)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	opts := req.Options.normalized()
	cfg, err := opts.coreConfig()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	plan, err := s.incrStores.Plan(base, mutated, incr.PlanOptions{
		Coverage: cfg.Coverage,
		ILP:      cfg.ILP,
		Fast:     req.Fast,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	job, err := s.submit(client, SolveRequest{Scenario: mutated, Options: opts}, &incrMeta{
		baseHash: hash,
		plan:     plan,
		fast:     req.Fast,
	})
	if err != nil {
		return nil, err
	}
	s.metrics.Resolves.Add(1)
	return job, nil
}
