// Package sagrelay is a Go implementation of "Signal-Aware Green Wireless
// Relay Network Design" (Gao, Tang, Sheng, Zhang, Wang — IEEE ICDCS 2013).
//
// It solves the SNR-Aware Green (SAG) relay problem: given subscriber
// stations with capacity (distance) and SNR requirements and a set of base
// stations, place a minimum number of relay stations forming a two-tier
// network — coverage relays serving subscribers on the lower tier,
// connectivity relays forwarding to base stations on the upper tier — and
// allocate transmission powers minimizing the total power cost.
//
// The package exposes the paper's algorithms directly:
//
//	SAMC     SNR Aware Minimum Coverage (Alg. 1), with Zone Partition,
//	         Coverage Link Escape and RS Sliding Movement inside
//	IAC/GAC  the ILPQC coverage formulations (eqs. 3.1-3.5) over
//	         intersection / grid candidates, solved by built-in
//	         branch-and-bound (no external solver needed)
//	PRO      Power Reduction Optimization (Alg. 6) and the exact LPQC
//	         optimum for the lower tier
//	MBMC     Multiple Base station Minimum Connectivity (Alg. 7), plus the
//	         MUST single-base-station baseline of DARP
//	UCPO     Upper-tier Connectivity Power Optimization (Alg. 8)
//	SAG      the combined pipeline (Alg. 9)
//
// Quick start:
//
//	sc, err := sagrelay.Generate(sagrelay.GenConfig{
//		FieldSide: 500, NumSS: 30, NumBS: 4, Seed: 1,
//	})
//	if err != nil { ... }
//	sol, err := sagrelay.SAG(context.Background(), sc, sagrelay.Config{})
//	if err != nil { ... }
//	fmt.Println(sol.TotalRelays(), sol.PTotal)
//
// Every solve function takes a context.Context first: cancellation and
// deadlines propagate down to the branch-and-bound node loops and simplex
// pivot iterations, and a context armed with WithTrace collects a per-stage
// span tree on Solution.Trace.
//
// The experiment harness regenerating every table and figure of the
// paper's evaluation lives behind RunExperiment and cmd/sagbench.
package sagrelay

import (
	"context"
	"fmt"

	"sagrelay/internal/core"
	"sagrelay/internal/experiment"
	"sagrelay/internal/geom"
	"sagrelay/internal/lower"
	"sagrelay/internal/obs"
	"sagrelay/internal/radio"
	"sagrelay/internal/scenario"
	"sagrelay/internal/sim"
	"sagrelay/internal/upper"
	"sagrelay/internal/viz"
)

// Geometry.
type (
	// Point is a planar location.
	Point = geom.Point
	// Circle is a feasible-coverage circle.
	Circle = geom.Circle
	// Rect is an axis-aligned rectangle (the playing field).
	Rect = geom.Rect
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// SquareField returns the side x side field centred at the origin.
func SquareField(side float64) Rect { return geom.SquareField(side) }

// Radio model.
type (
	// RadioModel is the two-ray ground path-loss model (eq. 2.1).
	RadioModel = radio.Model
)

// DefaultRadioModel returns the evaluation's radio parameters.
func DefaultRadioModel() RadioModel { return radio.DefaultModel() }

// DBToLinear converts decibels to a linear power ratio.
func DBToLinear(db float64) float64 { return radio.DBToLinear(db) }

// LinearToDB converts a linear power ratio to decibels.
func LinearToDB(r float64) float64 { return radio.LinearToDB(r) }

// Scenario model.
type (
	// Scenario is a problem instance (field, subscribers, base stations,
	// radio model, power and SNR parameters).
	Scenario = scenario.Scenario
	// Subscriber is a subscriber station with a distance requirement.
	Subscriber = scenario.Subscriber
	// BaseStation is a macro base station.
	BaseStation = scenario.BaseStation
	// GenConfig configures the uniform scenario generator (Section IV-A).
	GenConfig = scenario.GenConfig
	// TrafficClass is a rate-based demand class (Section II-A front end).
	TrafficClass = scenario.TrafficClass
	// TrafficConfig generates scenarios from traffic classes.
	TrafficConfig = scenario.TrafficConfig
	// ClusterConfig generates clustered (non-uniform) workloads.
	ClusterConfig = scenario.ClusterConfig
)

// Generate builds a seeded random scenario per the paper's evaluation
// setup.
func Generate(cfg GenConfig) (*Scenario, error) { return scenario.Generate(cfg) }

// GenerateTraffic builds a scenario whose distance requirements are
// derived from rate-based traffic classes via the capacity-to-distance
// transformation of Section II-A.
func GenerateTraffic(cfg TrafficConfig) (*Scenario, error) {
	return scenario.GenerateTraffic(cfg)
}

// GenerateClustered builds a clustered workload (retail strips, malls)
// instead of the uniform evaluation default.
func GenerateClustered(cfg ClusterConfig) (*Scenario, error) {
	return scenario.GenerateClustered(cfg)
}

// LoadScenario reads a scenario from a JSON file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// SaveScenario writes a scenario to a JSON file.
func SaveScenario(sc *Scenario, path string) error { return scenario.Save(sc, path) }

// Lower tier (LCRA).
type (
	// CoverageResult is a lower-tier placement.
	CoverageResult = lower.Result
	// CoverageRelay is a placed coverage relay.
	CoverageRelay = lower.Relay
	// CoveragePowerAllocation assigns powers to coverage relays.
	CoveragePowerAllocation = lower.PowerAllocation
	// SAMCOptions tunes the SAMC heuristic.
	SAMCOptions = lower.SAMCOptions
	// ILPOptions tunes the IAC/GAC solvers.
	ILPOptions = lower.ILPOptions
)

// SAMC runs the SNR Aware Minimum Coverage heuristic (Alg. 1).
func SAMC(ctx context.Context, sc *Scenario, opts SAMCOptions) (*CoverageResult, error) {
	return lower.SAMC(ctx, sc, opts)
}

// IAC solves the coverage ILP over intersection candidates (Fig. 2a).
func IAC(ctx context.Context, sc *Scenario, opts ILPOptions) (*CoverageResult, error) {
	return lower.IAC(ctx, sc, opts)
}

// GAC solves the coverage ILP over grid candidates (Fig. 2b).
func GAC(ctx context.Context, sc *Scenario, opts ILPOptions) (*CoverageResult, error) {
	return lower.GAC(ctx, sc, opts)
}

// PRO runs Power Reduction Optimization (Alg. 6) on a coverage result.
func PRO(ctx context.Context, sc *Scenario, res *CoverageResult) (*CoveragePowerAllocation, error) {
	return lower.PRO(ctx, sc, res)
}

// OptimalCoveragePower solves the exact LPQC power optimum (eqs. 3.6-3.9).
func OptimalCoveragePower(ctx context.Context, sc *Scenario, res *CoverageResult) (*CoveragePowerAllocation, error) {
	return lower.OptimalPower(ctx, sc, res)
}

// ZonePartition runs Algorithm 2, returning subscriber-index groups.
func ZonePartition(sc *Scenario) ([][]int, error) { return lower.ZonePartition(sc) }

// Upper tier (UCRA).
type (
	// ConnectivityResult is an upper-tier plan.
	ConnectivityResult = upper.Result
	// ConnectivityRelay is a placed connectivity relay.
	ConnectivityRelay = upper.ConnRelay
	// TreeEdge is one logical connectivity-tree edge.
	TreeEdge = upper.TreeEdge
	// ConnectivityPowerAllocation assigns powers to connectivity relays.
	ConnectivityPowerAllocation = upper.PowerAllocation
)

// MBMC runs Multiple Base station Minimum Connectivity (Alg. 7).
func MBMC(ctx context.Context, sc *Scenario, cover *CoverageResult) (*ConnectivityResult, error) {
	return upper.MBMC(ctx, sc, cover)
}

// MUST runs the single-base-station baseline of [1].
func MUST(ctx context.Context, sc *Scenario, cover *CoverageResult, bsIndex int) (*ConnectivityResult, error) {
	return upper.MUST(ctx, sc, cover, bsIndex)
}

// UCPO runs Upper-tier Connectivity Power Optimization (Alg. 8).
func UCPO(ctx context.Context, sc *Scenario, cover *CoverageResult, conn *ConnectivityResult) (*ConnectivityPowerAllocation, error) {
	return upper.UCPO(ctx, sc, cover, conn)
}

// Pipelines.
type (
	// Config selects and tunes the pipeline stages.
	Config = core.Config
	// Solution is a fully solved two-tier deployment.
	Solution = core.Solution
	// CoverageMethod selects the lower-tier algorithm.
	CoverageMethod = core.CoverageMethod
	// ConnectivityMethod selects the upper-tier algorithm.
	ConnectivityMethod = core.ConnectivityMethod
	// PowerMethod selects a power stage.
	PowerMethod = core.PowerMethod
)

// Pipeline stage identifiers re-exported from the core package.
const (
	CoverSAMC     = core.CoverSAMC
	CoverIAC      = core.CoverIAC
	CoverGAC      = core.CoverGAC
	ConnMBMC      = core.ConnMBMC
	ConnMUST      = core.ConnMUST
	PowerBaseline = core.PowerBaseline
	PowerGreen    = core.PowerGreen
	PowerOptimal  = core.PowerOptimal
)

// SAG runs the full SNR-Aware Green pipeline (Alg. 9).
func SAG(ctx context.Context, sc *Scenario, cfg Config) (*Solution, error) {
	return core.SAG(ctx, sc, cfg)
}

// DARP runs an "X+DARP" baseline pipeline (Section IV-D).
func DARP(ctx context.Context, sc *Scenario, coverage CoverageMethod, cfg Config) (*Solution, error) {
	return core.DARP(ctx, sc, coverage, cfg)
}

// RunPipeline executes an arbitrary stage configuration.
func RunPipeline(ctx context.Context, sc *Scenario, cfg Config) (*Solution, error) {
	return core.Run(ctx, sc, cfg)
}

// Observability.
type (
	// Trace collects a span tree for one solve. Arm a context with
	// WithTrace before calling SAG/RunPipeline and the finished tree
	// appears on Solution.Trace.
	Trace = obs.Trace
	// Span is one timed region of a trace.
	Span = obs.Span
	// SpanDoc is the JSON-serializable snapshot of a span tree
	// (Trace.Doc).
	SpanDoc = obs.SpanDoc
)

// NewTrace starts a trace whose root span has the given name.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// WithTrace arms ctx so solve functions record spans into t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return obs.WithTrace(ctx, t)
}

// Experiments.
type (
	// ExperimentConfig controls repetition and solver budgets.
	ExperimentConfig = experiment.Config
	// ResultTable is an experiment artifact (rows of averaged series).
	ResultTable = experiment.Table
)

// RunExperiment regenerates the identified paper artifact ("fig3a" ...
// "fig7c", "table2"). The context cancels in-flight runs; an explicit
// ExperimentConfig.Ctx takes precedence for backward compatibility.
func RunExperiment(ctx context.Context, id string, cfg ExperimentConfig) (*ResultTable, error) {
	if cfg.Ctx == nil {
		cfg.Ctx = ctx
	}
	return experiment.Run(id, cfg)
}

// ExperimentIDs lists the available artifact IDs.
func ExperimentIDs() []string { return experiment.IDs() }

// Deployment evaluation and failure injection.
type (
	// SimOptions configures link-level evaluation.
	SimOptions = sim.Options
	// SimReport is a whole-deployment link-level evaluation.
	SimReport = sim.Report
	// SubscriberReport is one subscriber's end-to-end evaluation.
	SubscriberReport = sim.SubscriberReport
	// Failure specifies a relay to fail.
	Failure = sim.Failure
	// FailureKind selects the failed tier.
	FailureKind = sim.FailureKind
	// FailureReport quantifies a failure's impact.
	FailureReport = sim.FailureReport
	// TrafficOptions configure the slotted downlink traffic simulation.
	TrafficOptions = sim.TrafficOptions
	// TrafficReport aggregates a traffic simulation run.
	TrafficReport = sim.TrafficReport
)

// Failure kinds re-exported from the sim package.
const (
	FailCoverage     = sim.FailCoverage
	FailConnectivity = sim.FailConnectivity
)

// ctxEntry is the shared entry check for facade functions whose internals
// are fast, bounded computations: honour an already-cancelled context
// without threading ctx through layers that would never poll it.
func ctxEntry(ctx context.Context, what string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sagrelay: %s: %w", what, err)
	}
	return nil
}

// Evaluate walks every subscriber's path in a solved deployment and
// reports per-hop SNRs, Shannon capacities and end-to-end bottlenecks.
func Evaluate(ctx context.Context, sc *Scenario, sol *Solution, opts SimOptions) (*SimReport, error) {
	if err := ctxEntry(ctx, "evaluate"); err != nil {
		return nil, err
	}
	return sim.Evaluate(sc, sol, opts)
}

// InjectFailure computes which subscribers lose service when one relay
// fails.
func InjectFailure(ctx context.Context, sc *Scenario, sol *Solution, f Failure) (*FailureReport, error) {
	if err := ctxEntry(ctx, "inject failure"); err != nil {
		return nil, err
	}
	return sim.InjectFailure(sc, sol, f)
}

// WorstSingleFailure scans all relays and returns the most damaging single
// failure.
func WorstSingleFailure(ctx context.Context, sc *Scenario, sol *Solution) (*FailureReport, error) {
	if err := ctxEntry(ctx, "worst single failure"); err != nil {
		return nil, err
	}
	return sim.WorstSingleFailure(sc, sol)
}

// RunTraffic simulates slotted store-and-forward downlink traffic over a
// solved deployment and reports delivery ratios, delays and queue
// pressure.
func RunTraffic(ctx context.Context, sc *Scenario, sol *Solution, opts TrafficOptions) (*TrafficReport, error) {
	if err := ctxEntry(ctx, "traffic simulation"); err != nil {
		return nil, err
	}
	return sim.RunTraffic(sc, sol, opts)
}

// Dual coverage (the 802.16j dual-relay MMR architecture of refs [8,9]).
type (
	// DualCoverageResult is a placement where every subscriber has a
	// primary and a backup access relay.
	DualCoverageResult = lower.DualResult
)

// DualCoverage places 2-fold coverage: every subscriber keeps a backup
// access relay, surviving any single coverage-relay failure.
func DualCoverage(ctx context.Context, sc *Scenario, opts SAMCOptions) (*DualCoverageResult, error) {
	return lower.DualCoverage(ctx, sc, opts)
}

// DistanceCoverage runs the DARP [1] lower tier: distance-only coverage
// with no SNR awareness (audit the damage with SNRViolations).
func DistanceCoverage(ctx context.Context, sc *Scenario, opts SAMCOptions) (*CoverageResult, error) {
	return lower.DistanceCoverage(ctx, sc, opts)
}

// SNRViolations counts subscribers whose Definition 2 SNR falls below the
// scenario threshold under a coverage result at PMax.
func SNRViolations(ctx context.Context, sc *Scenario, res *CoverageResult) (int, error) {
	return lower.SNRViolations(ctx, sc, res)
}

// Visualization.
type (
	// VizStyle configures SVG rendering.
	VizStyle = viz.Style
)

// RenderSVG draws a scenario and optional solution as an SVG document.
func RenderSVG(sc *Scenario, sol *Solution, style VizStyle) (string, error) {
	return viz.Render(sc, sol, style)
}

// RenderSVGFile draws to a file.
func RenderSVGFile(sc *Scenario, sol *Solution, style VizStyle, path string) error {
	return viz.RenderToFile(sc, sol, style, path)
}
