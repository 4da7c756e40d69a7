package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"sagrelay/internal/core"
	"sagrelay/internal/geom"
	"sagrelay/internal/lower"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// SolveRequest is the body of POST /v1/solve: a full scenario document
// plus pipeline and budget options.
type SolveRequest struct {
	Scenario *scenario.Scenario `json:"scenario"`
	Options  SolveOptions       `json:"options"`
}

// SolveOptions selects the pipeline stages and solver budgets for one
// request. Zero values mean the documented defaults, and defaults are
// normalized before hashing, so an explicit default and an omitted field
// produce the same cache key.
type SolveOptions struct {
	// Coverage is SAMC (default), IAC or GAC.
	Coverage string `json:"coverage,omitempty"`
	// CoveragePower is green (default), baseline or optimal.
	CoveragePower string `json:"coverage_power,omitempty"`
	// Connectivity is MBMC (default) or MUST.
	Connectivity string `json:"connectivity,omitempty"`
	// ConnectivityPower is green (default) or baseline.
	ConnectivityPower string `json:"connectivity_power,omitempty"`
	// MUSTBaseStation is the forced base station index for MUST.
	MUSTBaseStation int `json:"must_base_station,omitempty"`
	// GridSize is the GAC grid cell size (default 15).
	GridSize float64 `json:"grid_size,omitempty"`
	// MaxZoneSS caps subscribers per solved sub-zone (default 10).
	MaxZoneSS int `json:"max_zone_ss,omitempty"`
	// MaxNodes caps branch-and-bound nodes per zone (default 3000).
	MaxNodes int `json:"max_nodes,omitempty"`
	// ZoneTimeoutMS caps branch-and-bound time per zone (default 2000).
	ZoneTimeoutMS int64 `json:"zone_timeout_ms,omitempty"`
	// TimeoutMS is the per-job deadline; 0 means the server's default. It
	// bounds when a solve is abandoned, never what a finished solve
	// returns, so it is excluded from the cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers bounds per-zone solve concurrency inside this job; results
	// are identical for any worker count (the PR 1 determinism contract),
	// so it too is excluded from the cache key.
	Workers int `json:"workers,omitempty"`
	// NoDegrade disables the graceful-degradation ladder for this job: a
	// failed or deadline-blown stage then fails the job instead of falling
	// back to the paper's heuristics. Degradation only changes what happens
	// on failure, never the content of a full-fidelity result (and degraded
	// results are never cached), so this is excluded from the cache key too.
	NoDegrade bool `json:"no_degrade,omitempty"`
}

// normalized returns a copy with every cache-key-relevant zero value
// replaced by its default, mirroring the solver layers' own withDefaults
// so the key always describes the options the solve actually ran with.
func (o SolveOptions) normalized() SolveOptions {
	if o.Coverage == "" {
		o.Coverage = "SAMC"
	} else {
		o.Coverage = strings.ToUpper(o.Coverage)
	}
	if o.CoveragePower == "" {
		o.CoveragePower = "green"
	} else {
		o.CoveragePower = strings.ToLower(o.CoveragePower)
	}
	if o.Connectivity == "" {
		o.Connectivity = "MBMC"
	} else {
		o.Connectivity = strings.ToUpper(o.Connectivity)
	}
	if o.ConnectivityPower == "" {
		o.ConnectivityPower = "green"
	} else {
		o.ConnectivityPower = strings.ToLower(o.ConnectivityPower)
	}
	if o.Connectivity != "MUST" {
		o.MUSTBaseStation = 0 // irrelevant: never let it split cache keys
	}
	if o.GridSize <= 0 {
		o.GridSize = 15
	}
	if o.MaxZoneSS <= 0 {
		o.MaxZoneSS = 10
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 3000
	}
	if o.ZoneTimeoutMS <= 0 {
		o.ZoneTimeoutMS = 2000
	}
	// Compare in milliseconds before converting: a budget past the range
	// of a time.Duration is clamped to the longest one instead of wrapping.
	o.ZoneTimeoutMS = min(o.ZoneTimeoutMS, maxDurationMS)
	return o
}

// maxDurationMS is the longest time.Duration in whole milliseconds.
const maxDurationMS = int64(math.MaxInt64 / time.Millisecond)

// coreConfig translates the options into a pipeline configuration.
func (o SolveOptions) coreConfig() (core.Config, error) {
	var cfg core.Config
	switch o.Coverage {
	case "SAMC":
		cfg.Coverage = core.CoverSAMC
	case "IAC":
		cfg.Coverage = core.CoverIAC
	case "GAC":
		cfg.Coverage = core.CoverGAC
	default:
		return cfg, fmt.Errorf("unknown coverage method %q", o.Coverage)
	}
	switch o.CoveragePower {
	case "green":
		cfg.CoveragePower = core.PowerGreen
	case "baseline":
		cfg.CoveragePower = core.PowerBaseline
	case "optimal":
		cfg.CoveragePower = core.PowerOptimal
	default:
		return cfg, fmt.Errorf("unknown coverage power %q", o.CoveragePower)
	}
	switch o.Connectivity {
	case "MBMC":
		cfg.Connectivity = core.ConnMBMC
	case "MUST":
		cfg.Connectivity = core.ConnMUST
		cfg.MUSTBaseStation = o.MUSTBaseStation
	default:
		return cfg, fmt.Errorf("unknown connectivity method %q", o.Connectivity)
	}
	switch o.ConnectivityPower {
	case "green":
		cfg.ConnectivityPower = core.PowerGreen
	case "baseline":
		cfg.ConnectivityPower = core.PowerBaseline
	default:
		return cfg, fmt.Errorf("unknown connectivity power %q", o.ConnectivityPower)
	}
	cfg.Workers = o.Workers
	cfg.Degrade = !o.NoDegrade
	cfg.ILP = lower.ILPOptions{
		GridSize:  o.GridSize,
		MaxZoneSS: o.MaxZoneSS,
		MaxNodes:  o.MaxNodes,
		TimeLimit: time.Duration(o.ZoneTimeoutMS) * time.Millisecond,
		Workers:   o.Workers,
	}
	return cfg, nil
}

// requestKeyVersion tags the request-key encoding; bump on any change to
// the option set or layout so stale keys cannot alias new requests.
const requestKeyVersion = "sagreq/2"

// resultSchema is the version tag of ResultDoc, serialized first-keyed like
// the metrics document; bump alongside any wire-visible shape change.
const resultSchema = "sagresult/1"

// requestKey returns the content address of (scenario, options): the
// SHA-256 hex over the canonical scenario encoding plus a canonical
// encoding of the normalized solver-relevant options. Identical queries —
// regardless of JSON field order, whitespace, or explicitly-spelled
// defaults — collapse to one key; anything that could change the result
// document separates keys.
func requestKey(sc *scenario.Scenario, opts SolveOptions) string {
	o := opts.normalized()
	h := sha256.New()
	var b strings.Builder
	b.WriteString(requestKeyVersion)
	b.WriteByte('\n')
	b.WriteString("cov ")
	b.WriteString(o.Coverage)
	b.WriteByte('\n')
	b.WriteString("covp ")
	b.WriteString(o.CoveragePower)
	b.WriteByte('\n')
	b.WriteString("conn ")
	b.WriteString(o.Connectivity)
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(o.MUSTBaseStation))
	b.WriteByte('\n')
	b.WriteString("connp ")
	b.WriteString(o.ConnectivityPower)
	b.WriteByte('\n')
	b.WriteString("grid ")
	b.WriteString(strconv.FormatFloat(o.GridSize, 'x', -1, 64))
	b.WriteByte('\n')
	b.WriteString("zone ")
	b.WriteString(strconv.Itoa(o.MaxZoneSS))
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(o.MaxNodes))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(o.ZoneTimeoutMS, 10))
	b.WriteByte('\n')
	h.Write([]byte(b.String()))
	h.Write(sc.CanonicalBytes())
	return hex.EncodeToString(h.Sum(nil))
}

// ResultDoc is the deterministic solve result served by the API and stored
// in the cache. The solution fields carry no timing: wall-clock varies run
// to run and would break the byte-identical replay guarantee, so solve
// timing lives on the job status instead. Two deliberate exceptions:
//
//   - Degraded: a document with Degraded set came from a heuristic fallback
//     or a wall-clock-truncated branch-and-bound incumbent, is
//     timing-dependent, and is therefore never cached or content-addressed
//     (see runJob).
//   - Trace: the span tree of the solve that actually produced this
//     document. Cache hits and journal restores replay the original solve's
//     trace verbatim — the document is addressed and replayed as a whole,
//     so the trace describes the work that built the answer, not the
//     (free) lookup that served it.
type ResultDoc struct {
	Schema             string       `json:"schema"`
	Method             string       `json:"method"`
	Feasible           bool         `json:"feasible"`
	Degraded           bool         `json:"degraded,omitempty"`
	DegradedReason     string       `json:"degraded_reason,omitempty"`
	CoverageRelays     []RelayDoc   `json:"coverage_relays,omitempty"`
	ConnectivityRelays []geom.Point `json:"connectivity_relays,omitempty"`
	PL                 float64      `json:"coverage_power,omitempty"`
	PH                 float64      `json:"connectivity_power,omitempty"`
	PTotal             float64      `json:"total_power,omitempty"`
	NumCoverage        int          `json:"num_coverage_relays"`
	NumConnectivity    int          `json:"num_connectivity_relays"`
	Trace              *obs.SpanDoc `json:"trace,omitempty"`
}

// RelayDoc is one coverage relay in a ResultDoc.
type RelayDoc struct {
	Pos    geom.Point `json:"pos"`
	Power  float64    `json:"power"`
	Covers []int      `json:"covers"`
}

// buildResultDoc marshals a solution into the canonical result document
// bytes. encoding/json is deterministic for struct-typed values (fixed
// field order, shortest-round-trip floats), so equal solutions yield equal
// bytes.
func buildResultDoc(sol *core.Solution) ([]byte, error) {
	doc := ResultDoc{
		Schema:         resultSchema,
		Method:         sol.Method,
		Feasible:       sol.Feasible,
		Degraded:       sol.Degraded,
		DegradedReason: sol.DegradedReason,
	}
	if sol.Feasible {
		doc.PL, doc.PH, doc.PTotal = sol.PL, sol.PH, sol.PTotal
		doc.NumCoverage = sol.Coverage.NumRelays()
		doc.NumConnectivity = sol.Connectivity.NumRelays()
		for i, r := range sol.Coverage.Relays {
			doc.CoverageRelays = append(doc.CoverageRelays, RelayDoc{
				Pos:    r.Pos,
				Power:  sol.CoveragePower.Powers[i],
				Covers: r.Covers,
			})
		}
		for _, r := range sol.Connectivity.Relays {
			doc.ConnectivityRelays = append(doc.ConnectivityRelays, r.Pos)
		}
	}
	doc.Trace = sol.Trace.Doc()
	return json.Marshal(&doc)
}
