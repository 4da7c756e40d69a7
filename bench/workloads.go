package main

import (
	"context"
	"fmt"
	"strings"

	"sagrelay/internal/core"
	"sagrelay/internal/scenario"
	"sagrelay/internal/serve"
)

// runOpts are the settings of one run.
type runOpts struct {
	seed int64
	// seconds is the measured budget: summed solve time for the batch
	// workloads, the phase schedule for serve-open.
	seconds float64
	trace   bool
	// ops, when positive, replaces the batch time budget by an exact number
	// of solves; quality, when positive, overrides the quality prefix. Both
	// exist for the tiny runs of the tests.
	ops, quality int
	// golden compares the answer quality with golden.json.
	golden bool
	// setups is how many times the set-up runs; setup_s is their median.
	setups int
	// workDir holds the solve service's journal ("" means the temp dir).
	workDir string
}

// The workloads. Why each exists, and the layers each one loads, is in
// README.md and BENCHMARK.json. All four draw every input from the seed.
var (
	gacSweep = batchSpec{
		gen:     scenario.GenConfig{FieldSide: 500, NumSS: 20, NumBS: 4, SNRdB: -15},
		cfg:     pipeline(core.CoverGAC, core.PowerGreen, 10),
		quality: 40,
	}
	iacZones = batchSpec{
		gen:     scenario.GenConfig{FieldSide: 500, NumSS: 30, NumBS: 4, SNRdB: -15},
		cfg:     pipeline(core.CoverIAC, core.PowerGreen, 50),
		quality: 300,
	}
	sagHeuristic = batchSpec{
		gen:     scenario.GenConfig{FieldSide: 800, NumSS: 40, NumBS: 4, SNRdB: -15},
		cfg:     pipeline(core.CoverSAMC, core.PowerGreen, 0),
		quality: 1500,
	}
	serveOpen = serveSpec{
		rate:      20,
		refShare:  0.6,
		ladder:    []float64{80, 160, 480},
		limit:     1,
		mix:       [numClasses]int{classHit: 6, classColdSAMC: 8, classResolve: 2, classColdIAC: 4},
		hitPool:   20,
		bases:     4,
		quality:   200,
		twinShare: 0.05,
		samc:      scenario.GenConfig{FieldSide: 500, NumSS: 30, NumBS: 3, SNRdB: -15},
		iac:       scenario.GenConfig{FieldSide: 800, NumSS: 40, NumBS: 3, SNRdB: -15},
		base:      scenario.GenConfig{FieldSide: 1400, NumSS: 48, NumBS: 3, SNRdB: -15},
		iacOpts:   serve.SolveOptions{Coverage: "IAC", MaxNodes: 20, ZoneTimeoutMS: 600000, Workers: 1},
	}
)

type workload struct {
	name string
	run  func(context.Context, runOpts) (*report, error)
}

var workloads = []workload{
	{"gac-sweep", func(ctx context.Context, o runOpts) (*report, error) {
		return runBatch(ctx, "gac-sweep", gacSweep, o)
	}},
	{"iac-zones", func(ctx context.Context, o runOpts) (*report, error) {
		return runBatch(ctx, "iac-zones", iacZones, o)
	}},
	{"sag-heuristic", func(ctx context.Context, o runOpts) (*report, error) {
		return runBatch(ctx, "sag-heuristic", sagHeuristic, o)
	}},
	{"serve-open", func(ctx context.Context, o runOpts) (*report, error) {
		return runServe(ctx, "serve-open", &serveOpen, o)
	}},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
