package milp_test

import (
	"context"
	"testing"

	"sagrelay/internal/benchprob"
	"sagrelay/internal/lp"
	"sagrelay/internal/milp"
)

// BenchmarkMILPSolve measures a full branch-and-bound solve of the
// representative per-zone ILPQC instance (built by
// sagrelay/internal/benchprob) — the unit of work that every IAC/GAC
// figure repeats per zone per run per data point. Custom metrics expose
// the solver-level work: nodes, total LP pivots, the warm/cold solve split,
// and how many warm starts factorized their basis versus restored a parked
// factorization.
func BenchmarkMILPSolve(b *testing.B) {
	p, isInt := benchprob.ILPQC()
	benchSolve(b, p, isInt, milp.Options{})
}

// BenchmarkMILPSolveGAC measures a 10-node search of the GAC-size zone,
// the node cap the gac-sweep benchmark workload uses.
func BenchmarkMILPSolveGAC(b *testing.B) {
	p, isInt := benchprob.GACZone()
	benchSolve(b, p, isInt, milp.Options{MaxNodes: 10})
}

func benchSolve(b *testing.B, p *lp.Problem, isInt []bool, opts milp.Options) {
	b.ReportAllocs()
	var nodes, pivots, warm, cold int
	refactors0, reuses0 := lp.FactorStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := milp.Solve(context.Background(), p, isInt, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != milp.Optimal && res.Status != milp.Feasible {
			b.Fatalf("status %v", res.Status)
		}
		nodes += res.Nodes
		pivots += res.Pivots
		warm += res.WarmSolves
		cold += res.ColdSolves
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(warm)/float64(b.N), "warm/op")
	b.ReportMetric(float64(cold)/float64(b.N), "cold/op")
	refactors, reuses := lp.FactorStats()
	b.ReportMetric(float64(refactors-refactors0)/float64(b.N), "refactors/op")
	b.ReportMetric(float64(reuses-reuses0)/float64(b.N), "reuses/op")
}
