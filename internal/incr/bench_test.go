package incr_test

import (
	"context"
	"testing"

	"sagrelay/internal/core"
	"sagrelay/internal/geom"
	"sagrelay/internal/incr"
	"sagrelay/internal/milp"
	"sagrelay/internal/scenario"
)

// BenchmarkSingleMoveResolve measures the cold-vs-incremental gap for one
// subscriber move on a multi-zone IAC instance (1400x1400, 48 subscribers,
// 3 base stations). full-cold solves the moved scenario with no stores;
// resolve solves it through stores warmed on the base scenario (the warm-up
// is untimed). Both report the zones spliced from the stores, the zones
// actually re-solved and the branch-and-bound nodes per solve.
func BenchmarkSingleMoveResolve(b *testing.B) {
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 1400, NumSS: 48, NumBS: 3, SNRdB: -15, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	s0 := sc.Subscribers[0]
	d := &scenario.Delta{Version: scenario.DeltaVersion, Ops: []scenario.DeltaOp{
		{Op: scenario.OpMoveSS, ID: s0.ID, Pos: &geom.Point{X: s0.Pos.X + 6, Y: s0.Pos.Y + 5}},
	}}
	mut, err := d.Apply(sc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full-cold", func(b *testing.B) { benchMove(b, nil, mut) })
	b.Run("resolve", func(b *testing.B) { benchMove(b, sc, mut) })
}

// benchMove times solving mut, through stores warmed on base when base is
// non-nil.
func benchMove(b *testing.B, base, mut *scenario.Scenario) {
	ctx := context.Background()
	var reused, resolved, nodes int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := solveCfg(core.CoverIAC)
		cfg.Workers = 1
		if base != nil {
			incr.NewStores(0).Wire(&cfg)
			if _, err := core.Run(ctx, base, cfg); err != nil {
				b.Fatalf("warm solve: %v", err)
			}
		}
		r0, s0, n0 := incr.ZonesReused(), incr.ZonesResolved(), milp.TotalNodes()
		b.StartTimer()
		if _, err := core.Run(ctx, mut, cfg); err != nil {
			b.Fatalf("solve: %v", err)
		}
		b.StopTimer()
		reused += incr.ZonesReused() - r0
		resolved += incr.ZonesResolved() - s0
		nodes += milp.TotalNodes() - n0
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(float64(reused)/n, "zones-reused/op")
	b.ReportMetric(float64(resolved)/n, "zones-resolved/op")
	b.ReportMetric(float64(nodes)/n, "bb-nodes/op")
}
