package main

import (
	"math"
	"testing"

	"sagrelay/internal/obs"
)

func span(name string, start, end int64, kids ...*obs.SpanDoc) *obs.SpanDoc {
	return &obs.SpanDoc{Name: name, StartNS: start, DurNS: end - start, Spans: kids}
}

// TestFoldOverlappingChildren checks that self time subtracts the union of
// the children's intervals: two parallel zone spans overlap for 10ns, and a
// child that outlives its parent only counts inside the parent.
func TestFoldOverlappingChildren(t *testing.T) {
	root := span("solve", 0, 100,
		span("zone", 10, 40, span("bnb", 15, 25)),
		span("zone", 30, 60),
		span("ucpo", 80, 90),
		span("tree_build", 95, 110),
	)
	l := ledger{}
	l.fold(root)

	want := map[string]stageTime{
		// Children cover [10,60) + [80,90) + [95,100) = 65ns; their summed
		// lengths (30+30+10+15 = 85ns) would leave 15ns.
		"solve":      {Total: 100e-9, Self: 35e-9},
		"zone":       {Total: 60e-9, Self: 50e-9},
		"bnb":        {Total: 10e-9, Self: 10e-9},
		"ucpo":       {Total: 10e-9, Self: 10e-9},
		"tree_build": {Total: 15e-9, Self: 15e-9},
	}
	if len(l) != len(want) {
		t.Fatalf("ledger has %d stages, want %d", len(l), len(want))
	}
	for name, w := range want {
		got := l[name]
		if got == nil {
			t.Fatalf("stage %q missing", name)
		}
		if !near(got.Total, w.Total) || !near(got.Self, w.Self) {
			t.Errorf("%s = {Total:%g Self:%g}, want {Total:%g Self:%g}", name, got.Total, got.Self, w.Total, w.Self)
		}
	}

	// zone [10,60) already contains bnb, ucpo adds 10ns and tree_build the
	// 5ns that lie inside the root.
	if got := attributed(root, leafStages); got != 65 {
		t.Errorf("attributed = %dns, want 65ns", got)
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	iv := []interval{{50, 70}, {0, 10}, {5, 8}, {60, 65}, {200, 300}}
	if got := covered(iv, 0, 100); got != 30 {
		t.Fatalf("covered = %d, want 30", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-15 }
