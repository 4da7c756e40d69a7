package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"sagrelay/internal/core"
	"sagrelay/internal/lower"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// batchSpec is a batch workload: a seeded stream of generated scenarios,
// each solved by one core.Run call on one worker, back to back.
type batchSpec struct {
	gen scenario.GenConfig
	cfg core.Config
	// quality is how many leading inputs relays_total and power_total sum
	// over, so both are exact for a seed however many inputs fit the time.
	quality int
}

// pipeline is the configuration every batch workload shares: MBMC + UCPO
// upstream, no zone parallelism, and a node budget whose wall-clock cap is
// out of reach so every count repeats exactly.
func pipeline(cov core.CoverageMethod, power core.PowerMethod, maxNodes int) core.Config {
	return core.Config{
		Coverage:          cov,
		CoveragePower:     power,
		Connectivity:      core.ConnMBMC,
		ConnectivityPower: core.PowerGreen,
		Workers:           1,
		ILP:               lower.ILPOptions{MaxNodes: maxNodes, TimeLimit: time.Hour, Workers: 1},
	}
}

// warmups is how many inputs a batch set-up solves untimed. Several, so
// that setup_s does not hang on one input's difficulty.
const warmups = 3

// inputs is the seeded scenario stream of one run.
type inputs struct {
	gen scenario.GenConfig
	rng *rand.Rand
}

func newInputs(gen scenario.GenConfig, seed int64) *inputs {
	return &inputs{gen: gen, rng: rand.New(rand.NewSource(seed))}
}

func (in *inputs) next() (*scenario.Scenario, error) {
	g := in.gen
	g.Seed = in.rng.Int63()
	return scenario.Generate(g)
}

// runBatch measures one batch workload. Untraced, it solves the stream
// until the solves' summed wall time reaches the budget. Traced, it solves
// every input twice, untraced and traced in alternating order, so the
// per-layer fold and the tracing overhead come from identical work.
func runBatch(ctx context.Context, name string, spec batchSpec, o runOpts) (*report, error) {
	rep := newReport(name, o)
	quality := spec.quality
	if o.quality > 0 {
		quality = o.quality
	}

	// Set-up: draw the warm-up inputs and the quality prefix, then solve the
	// warm-up inputs untimed.
	var (
		in     *inputs
		prefix []*scenario.Scenario
		setups []float64
	)
	for s := 0; s < o.setups; s++ {
		t0 := time.Now()
		in = newInputs(spec.gen, o.seed)
		prefix = prefix[:0]
		for i := 0; i < warmups+quality; i++ {
			sc, err := in.next()
			if err != nil {
				return nil, fmt.Errorf("generate input %d: %w", i, err)
			}
			prefix = append(prefix, sc)
		}
		for _, sc := range prefix[:warmups] {
			if _, err := core.Run(ctx, sc, spec.cfg); err != nil {
				return nil, fmt.Errorf("warm-up solve: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	prefix = prefix[warmups:]
	rep.set("setup_s", "s", quantile(setups, 0.5))

	var (
		lat                 []float64
		busy, tracedSeconds float64
		relays              int
		power               float64
		infeasible          int
		l                   = ledger{}
		attributedNS        int64
		mem                 memDelta
	)
	input := func(i int) (*scenario.Scenario, error) {
		if i < len(prefix) {
			return prefix[i], nil
		}
		return in.next()
	}
	start := readCounters()
	for i := 0; ; i++ {
		done := busy >= o.seconds
		if o.ops > 0 {
			done = i >= o.ops
		}
		// An untraced run always completes the quality prefix; a traced one
		// reports no answer quality.
		if done && (o.trace || i >= quality) {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc, err := input(i)
		if err != nil {
			return nil, fmt.Errorf("generate input %d: %w", i, err)
		}
		rep.Attempted++

		// A traced run solves the input twice. The traced solve goes first on
		// odd inputs, so neither goes first more often.
		var sol *core.Solution
		passes := 1
		if o.trace {
			passes = 2
		}
		for pass := 0; pass < passes; pass++ {
			if o.trace && pass == i%2 {
				tr := obs.NewTrace("op")
				if _, terr := core.Run(obs.WithTrace(ctx, tr), sc, spec.cfg); terr != nil {
					err = terr
				}
				tr.Finish()
				doc := tr.Doc()
				l.fold(doc)
				attributedNS += attributed(doc, leafStages)
				busy += seconds(doc.DurNS)
				tracedSeconds += seconds(doc.DurNS)
				continue
			}
			var m0, m1 runtime.MemStats
			if o.trace {
				m0 = readMem()
			}
			t0 := time.Now()
			var uerr error
			sol, uerr = core.Run(ctx, sc, spec.cfg)
			d := time.Since(t0).Seconds()
			if o.trace {
				m1 = readMem()
				mem.add(&m0, &m1)
			}
			if uerr != nil {
				err = uerr
			}
			busy += d
			lat = append(lat, d)
		}
		if err != nil {
			rep.fail("input %d: %v", i, err)
			continue
		}
		if sol.Degraded {
			rep.fail("input %d: degraded: %s", i, sol.DegradedReason)
		}
		if err := checkSolution(sc, sol); err != nil {
			rep.wrong("input %d: %v", i, err)
		}
		if !sol.Feasible {
			infeasible++
		}
		if i < quality {
			relays += sol.TotalRelays()
			power += sol.PTotal
		}
	}
	delta := readCounters().since(start)
	ops := len(lat)

	rep.set("throughput_ops_per_s", "ops/s", float64(ops)/sum(lat))
	rep.setLatencies(lat)
	rep.set("relays_total", "count", float64(relays))
	rep.set("power_total", "power", power)
	rep.set("lower.infeasible", "count", float64(infeasible))
	checkGolden(rep, name, o.seed, o.golden && !o.trace && o.quality == 0, relays, power)

	if o.trace {
		// Every input was solved twice with identical work, so the counter
		// deltas halve to the traced solves' share.
		delta = halve(delta)
		untraced := sum(lat)
		setLayerCounters(rep, delta, l, ops, 0, tracedSeconds)
		setGoMetrics(rep, mem, ops)
		rep.set("obs.trace_overhead_ratio", "ratio", ratio(tracedSeconds, untraced)-1)
		rep.set("obs.attributed_ratio", "ratio", ratio(seconds(attributedNS), tracedSeconds))
		rep.set("upper.relays", "count", l.attr("tree_build", "relays")/float64(max(ops, 1)))
	}
	rep.setOutcome()
	setServeZeros(rep)
	return rep, nil
}

// checkSolution runs the program's public verifiers on one answer: the
// coverage placement with its SNR constraints, the coverage power
// allocation, the connectivity tree, and the power totals. An infeasible
// answer carries nothing to verify.
func checkSolution(sc *scenario.Scenario, sol *core.Solution) error {
	if !sol.Feasible {
		return nil
	}
	if err := sol.Coverage.Verify(sc, true); err != nil {
		return fmt.Errorf("coverage: %w", err)
	}
	if err := lower.VerifyPower(sc, sol.Coverage, sol.CoveragePower.Powers); err != nil {
		return fmt.Errorf("coverage power: %w", err)
	}
	if err := sol.Connectivity.Verify(sc, sol.Coverage); err != nil {
		return fmt.Errorf("connectivity: %w", err)
	}
	if d := sol.PTotal - sol.PL - sol.PH; math.Abs(d) > 1e-9*math.Max(1, sol.PTotal) {
		return fmt.Errorf("total power %g is not P_L %g + P_H %g", sol.PTotal, sol.PL, sol.PH)
	}
	return nil
}

func halve(c counters) counters {
	return counters{
		nodes:         c.nodes / 2,
		warmStarts:    c.warmStarts / 2,
		coldFallbacks: c.coldFallbacks / 2,
		pivots:        c.pivots / 2,
	}
}
