// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact; see DESIGN.md's experiment index), plus the
// ablation studies DESIGN.md calls out and micro-benchmarks of the hot
// substrates. Figure benches run one full artifact generation per
// iteration with a single seeded repetition (experiment.QuickConfig); use
// cmd/sagbench -runs 10 for paper-strength averaging.
package sagrelay

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sagrelay/internal/experiment"
	"sagrelay/internal/geom"
	"sagrelay/internal/hitting"
	"sagrelay/internal/lower"
	"sagrelay/internal/lp"
	"sagrelay/internal/scenario"
	"sagrelay/internal/upper"
)

// benchArtifact runs one full artifact regeneration per iteration and
// reports the mean of the last series column as a sanity metric.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Run(id, experiment.QuickConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
		row := tbl.Rows[len(tbl.Rows)-1]
		last = row.Values[len(row.Values)-1]
	}
	if !math.IsNaN(last) {
		b.ReportMetric(last, "last-cell")
	}
}

func BenchmarkFig3a(b *testing.B)  { benchArtifact(b, "fig3a") }
func BenchmarkFig3b(b *testing.B)  { benchArtifact(b, "fig3b") }
func BenchmarkFig3c(b *testing.B)  { benchArtifact(b, "fig3c") }
func BenchmarkFig3d(b *testing.B)  { benchArtifact(b, "fig3d") }
func BenchmarkFig3e(b *testing.B)  { benchArtifact(b, "fig3e") }
func BenchmarkFig4a(b *testing.B)  { benchArtifact(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)  { benchArtifact(b, "fig4b") }
func BenchmarkFig4c(b *testing.B)  { benchArtifact(b, "fig4c") }
func BenchmarkFig4d(b *testing.B)  { benchArtifact(b, "fig4d") }
func BenchmarkFig5a(b *testing.B)  { benchArtifact(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)  { benchArtifact(b, "fig5b") }
func BenchmarkFig5c(b *testing.B)  { benchArtifact(b, "fig5c") }
func BenchmarkFig5d(b *testing.B)  { benchArtifact(b, "fig5d") }
func BenchmarkFig6(b *testing.B)   { benchArtifact(b, "fig6") }
func BenchmarkFig7a(b *testing.B)  { benchArtifact(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)  { benchArtifact(b, "fig7b") }
func BenchmarkFig7c(b *testing.B)  { benchArtifact(b, "fig7c") }
func BenchmarkTable2(b *testing.B) { benchArtifact(b, "table2") }

// BenchmarkFig3aWorkers regenerates fig3a at fixed worker counts — the
// speedup of workers-4 over workers-1 is the parallel solve engine's
// headline number (on a multi-core host; on one CPU the two coincide).
func BenchmarkFig3aWorkers(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiment.QuickConfig()
				cfg.Workers = w
				cfg.ILP.Workers = w
				if _, err := experiment.Run("fig3a", cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchScenario builds the standard 30-user 500x500 workload.
func benchScenario(b *testing.B, seed int64) *scenario.Scenario {
	b.Helper()
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 500, NumSS: 30, NumBS: 4, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// Ablation: hitting-set local search on/off. Reports the mean SAMC relay
// count over a fixed instance set; greedy-only should need at least as
// many relays.
func BenchmarkAblationLocalSearch(b *testing.B) {
	run := func(b *testing.B, opts hitting.Options) {
		relays := 0.0
		for i := 0; i < b.N; i++ {
			sc := benchScenario(b, int64(i%5))
			res, err := lower.SAMC(context.Background(), sc, lower.SAMCOptions{Hitting: opts})
			if err != nil {
				b.Fatal(err)
			}
			if res.Feasible {
				relays = float64(res.NumRelays())
			}
		}
		b.ReportMetric(relays, "relays")
	}
	b.Run("greedy-only", func(b *testing.B) {
		run(b, hitting.Options{LocalSearch: false, MaxSwap: 1})
	})
	b.Run("local-search", func(b *testing.B) {
		run(b, hitting.DefaultOptions())
	})
}

// Ablation: RS Sliding Movement on/off at a strict threshold. Reports the
// fraction of instances each variant solves; sliding is the paper's rescue
// mechanism for SNR-tight instances.
func BenchmarkAblationSliding(b *testing.B) {
	const strictSNR = -11.0
	run := func(b *testing.B, skip bool) {
		feasible, total := 0, 0
		for i := 0; i < b.N; i++ {
			for seed := int64(0); seed < 5; seed++ {
				sc, err := scenario.Generate(scenario.GenConfig{
					FieldSide: 500, NumSS: 30, NumBS: 4, SNRdB: strictSNR, Seed: seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := lower.SAMC(context.Background(), sc, lower.SAMCOptions{SkipSliding: skip})
				if err != nil {
					b.Fatal(err)
				}
				total++
				if res.Feasible {
					feasible++
				}
			}
		}
		b.ReportMetric(float64(feasible)/float64(total), "feasible-rate")
	}
	b.Run("no-sliding", func(b *testing.B) { run(b, true) })
	b.Run("sliding", func(b *testing.B) { run(b, false) })
}

// Ablation: zone-size cap for the ILP decomposition (solution quality vs
// solve time; Section IV-A's tractability dial).
func BenchmarkAblationZones(b *testing.B) {
	for _, cap := range []int{6, 10, 14} {
		cap := cap
		b.Run(map[int]string{6: "cap-6", 10: "cap-10", 14: "cap-14"}[cap], func(b *testing.B) {
			relays := 0.0
			for i := 0; i < b.N; i++ {
				sc := benchScenario(b, 3)
				res, err := lower.IAC(context.Background(), sc, lower.ILPOptions{MaxZoneSS: cap})
				if err != nil {
					b.Fatal(err)
				}
				if res.Feasible {
					relays = float64(res.NumRelays())
				}
			}
			b.ReportMetric(relays, "relays")
		})
	}
}

// Micro-benchmarks of the hot substrates.

func BenchmarkSAMC30(b *testing.B) {
	sc := benchScenario(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lower.SAMC(context.Background(), sc, lower.SAMCOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMBMC30(b *testing.B) {
	sc := benchScenario(b, 1)
	cover, err := lower.SAMC(context.Background(), sc, lower.SAMCOptions{})
	if err != nil || !cover.Feasible {
		b.Fatal("coverage failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := upper.MBMC(context.Background(), sc, cover); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPRO30(b *testing.B) {
	sc := benchScenario(b, 1)
	cover, err := lower.SAMC(context.Background(), sc, lower.SAMCOptions{})
	if err != nil || !cover.Feasible {
		b.Fatal("coverage failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lower.PRO(context.Background(), sc, cover); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexCovering(b *testing.B) {
	build := func() *lp.Problem {
		p := lp.NewProblem()
		const n = 40
		for i := 0; i < n; i++ {
			v := p.AddVariable("x", 1+float64(i%7))
			if err := p.SetUpperBound(v, 1); err != nil {
				b.Fatal(err)
			}
		}
		for k := 0; k < 30; k++ {
			var terms []lp.Term
			for i := k % 3; i < n; i += 3 + k%4 {
				terms = append(terms, lp.Term{Var: i, Coef: 1})
			}
			if err := p.AddConstraint(terms, lp.GE, 1); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := build().Solve()
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("solve failed: %v %v", err, sol)
		}
	}
}

func BenchmarkHittingSet(b *testing.B) {
	sc := benchScenario(b, 2)
	disks := sc.FeasibleCircles()
	cands := geom.IntersectionCandidates(disks)
	inst := &hitting.Instance{Disks: disks, Candidates: cands, Tol: 1e-7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Solve(hitting.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZonePartition(b *testing.B) {
	sc := benchScenario(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lower.ZonePartition(sc); err != nil {
			b.Fatal(err)
		}
	}
}
