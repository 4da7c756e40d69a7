package main

import (
	"context"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// serve-open starts its load generator process.
func TestMain(m *testing.M) {
	if plan := os.Getenv(loadgenEnv); plan != "" {
		os.Exit(loadgenMain(plan, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tinyWorkloads are the four workloads at a size the race detector gets
// through in seconds: two small solves per batch run, and serve-open on
// small scenarios for 1.5 seconds at 10 requests/s with a two-step ladder.
func tinyWorkloads() []workload {
	gac := gacSweep
	gac.gen.NumSS, gac.cfg.ILP.GridSize, gac.cfg.ILP.MaxNodes = 6, 30, 3
	iac := iacZones
	iac.gen.NumSS = 15
	sag := sagHeuristic
	srv := serveOpen
	srv.rate, srv.ladder, srv.hitPool, srv.bases, srv.twinShare = 10, []float64{20, 40}, 4, 1, 0.25
	srv.samc.NumSS, srv.iac.NumSS, srv.base.NumSS = 15, 15, 24
	batch := func(name string, s batchSpec) workload {
		return workload{name, func(ctx context.Context, o runOpts) (*report, error) {
			return runBatch(ctx, name, s, o)
		}}
	}
	return []workload{
		batch("gac-sweep", gac),
		batch("iac-zones", iac),
		batch("sag-heuristic", sag),
		{"serve-open", func(ctx context.Context, o runOpts) (*report, error) {
			return runServe(ctx, "serve-open", &srv, o)
		}},
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced twice with one
// seed. Every metric BENCHMARK.json declares must be printed in its unit,
// every answer check must pass, and the effort counts and answer quality
// must repeat exactly.
func TestWorkloadsSmoke(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range tinyWorkloads() {
		if m.Workloads[i].Name != w.name || workloads[i].name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q here", i, m.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{seed: 7, seconds: 1.5, ops: 2, quality: 2, setups: 1, workDir: t.TempDir()}
			run := func(trace bool) *report {
				o.trace = trace
				rep, err := measure(context.Background(), w, o)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Attempted == 0 || rep.Failed != 0 || !rep.correct() {
					t.Fatalf("trace=%v: %d attempted, %d failed: %v", trace, rep.Attempted, rep.Failed, rep.Problems)
				}
				res, err := resultFor(rep, m)
				if err != nil {
					t.Fatal(err)
				}
				want := len(m.EndToEnd)
				if trace {
					want = len(m.PerLayer)
				}
				if len(res.Metrics) != want {
					t.Fatalf("trace=%v: printed %d metrics, want %d", trace, len(res.Metrics), want)
				}
				return rep
			}
			run(false)
			first, second := run(true), run(true)
			for _, name := range []string{"milp.nodes", "lp.pivots", "relays_total", "power_total"} {
				a, b := first.Metrics[name], second.Metrics[name]
				if a != b {
					t.Errorf("%s differs across runs with one seed: %v then %v", name, a.Value, b.Value)
				}
			}
			if first.Metrics["relays_total"].Value == 0 {
				t.Errorf("relays_total is 0: no answer was counted")
			}
		})
	}
}
