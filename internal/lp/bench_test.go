package lp_test

import (
	"context"
	"testing"

	"sagrelay/internal/benchprob"
	"sagrelay/internal/lp"
)

// BenchmarkLPSolve measures one simplex solve of the representative
// per-zone ILPQC relaxation (built by sagrelay/internal/benchprob) — the
// exact relaxation branch-and-bound re-solves at every node, so allocs/op
// here multiply across the whole search tree.
func BenchmarkLPSolve(b *testing.B) {
	p := benchprob.ILPQCRelaxation()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve()
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkLPSolveReused measures the same solve through a held Solver —
// the branch-and-bound configuration, where tableau memory is recycled
// across node re-solves.
func BenchmarkLPSolveReused(b *testing.B) {
	p := benchprob.ILPQCRelaxation()
	s := lp.NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := s.Solve(p, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkLPWarmSolve measures a warm-started re-solve under one changed
// bound — the branch-and-bound child-node pattern: solve the parent once,
// then repeatedly dual-simplex from its basis with a single variable fixed.
// See benchWarmSolve for its two sub-benchmarks.
func BenchmarkLPWarmSolve(b *testing.B) {
	benchWarmSolve(b, benchprob.ILPQCRelaxation())
}

// BenchmarkLPWarmSolveGAC is BenchmarkLPWarmSolve on the GAC-size zone,
// where refactorizing the parent basis dominates a child solve.
func BenchmarkLPWarmSolveGAC(b *testing.B) {
	benchWarmSolve(b, benchprob.GACZoneRelaxation())
}

// benchWarmSolve re-solves p's child b.N times from the parent basis, in two
// sub-benchmarks: /refactor with factor reuse off, so every iteration
// refactorizes the parent basis from the raw tableau, and /restore with it
// on, so every iteration after the first restores the factorization the
// previous one parked. Both report refactors/op and restores/op.
func benchWarmSolve(b *testing.B, p *lp.Problem) {
	for _, c := range []struct {
		name  string
		reuse bool
	}{{"refactor", false}, {"restore", true}} {
		b.Run(c.name, func(b *testing.B) {
			defer lp.SetFactorReuse(lp.SetFactorReuse(c.reuse))
			s := lp.NewSolver()
			ctx := context.Background()
			parent, err := s.WarmSolve(ctx, p, nil, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if parent.Status != lp.Optimal || parent.Basis == nil {
				b.Fatalf("parent solve: status %v, basis %v", parent.Status, parent.Basis)
			}
			fix := map[int]float64{0: 1} // force placement of candidate 0
			refactors0, restores0 := lp.FactorStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := s.WarmSolve(ctx, p, fix, nil, parent.Basis)
				if err != nil {
					b.Fatal(err)
				}
				if sol.Status != lp.Optimal || !sol.WarmStarted {
					b.Fatalf("status %v, warm started %v", sol.Status, sol.WarmStarted)
				}
			}
			b.StopTimer()
			refactors, restores := lp.FactorStats()
			b.ReportMetric(float64(refactors-refactors0)/float64(b.N), "refactors/op")
			b.ReportMetric(float64(restores-restores0)/float64(b.N), "restores/op")
		})
	}
}
