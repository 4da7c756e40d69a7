package lower

import (
	"context"
	"strconv"
	"testing"

	"sagrelay/internal/geom"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// spanMethods are the five zone-driven coverage methods, each run with a
// zone worker count (SAMC ignores it and solves zones in order).
var spanMethods = []struct {
	name string
	run  func(ctx context.Context, sc *scenario.Scenario, workers int) (*Result, error)
}{
	{"SAMC", func(ctx context.Context, sc *scenario.Scenario, w int) (*Result, error) {
		return SAMC(ctx, sc, SAMCOptions{Workers: w})
	}},
	{"IAC", func(ctx context.Context, sc *scenario.Scenario, w int) (*Result, error) {
		return IAC(ctx, sc, ILPOptions{Workers: w})
	}},
	{"GAC", func(ctx context.Context, sc *scenario.Scenario, w int) (*Result, error) {
		return GAC(ctx, sc, ILPOptions{Workers: w})
	}},
	{"DistanceCoverage", func(ctx context.Context, sc *scenario.Scenario, w int) (*Result, error) {
		return DistanceCoverage(ctx, sc, SAMCOptions{Workers: w})
	}},
	{"DualCoverage", func(ctx context.Context, sc *scenario.Scenario, w int) (*Result, error) {
		res, err := DualCoverage(ctx, sc, SAMCOptions{Workers: w})
		if err != nil {
			return nil, err
		}
		return &res.Result, nil
	}},
}

// zoneSpanCounts runs one solve of the method under a fresh trace and
// returns how many spans of the given names are direct children of the
// trace root and how many lie anywhere in the tree, plus the number of
// zones the solve reports. Direct and total must agree: a zone span nested
// under another zone's span would mean a worker attached to the wrong
// parent.
func zoneSpanCounts(t *testing.T, sc *scenario.Scenario, method string, run func(context.Context, *scenario.Scenario, int) (*Result, error), workers int) (direct, total map[string]int, zones int) {
	t.Helper()
	tr := obs.NewTrace("root")
	res, err := run(obs.WithTrace(context.Background(), tr), sc, workers)
	if err != nil {
		t.Fatalf("%s(workers=%d): %v", method, workers, err)
	}
	if !res.Feasible {
		t.Fatalf("%s(workers=%d) infeasible", method, workers)
	}
	tr.Finish()
	doc := tr.Doc()
	direct, total = map[string]int{}, map[string]int{}
	for _, name := range []string{"zone_partition", "zone"} {
		total[name] = doc.Count(name)
	}
	for _, c := range doc.Spans {
		direct[c.Name]++
	}
	return direct, total, len(res.Zones)
}

// TestZoneSpansLandUnderRootParallel: every coverage method leaves one
// shape of trace, one zone_partition span and one zone span per zone, all
// direct children of the span on the context. With Workers > 1 the zone
// spans are opened on pool-worker goroutines, yet every one of them must
// attach directly under the span that was on the context at fan-out time —
// the trace root here. Run under -race this also exercises the concurrent
// child-append path.
func TestZoneSpansLandUnderRootParallel(t *testing.T) {
	// Three far-apart clusters of overlapping circles: several zones, and
	// every circle holds two candidates, so the 2-fold cover is feasible.
	var subs []scenario.Subscriber
	for _, c := range []geom.Point{{X: -190, Y: -190}, {X: 190, Y: -190}, {X: 0, Y: 190}} {
		for _, d := range []geom.Point{{X: 0, Y: 0}, {X: 25, Y: 0}, {X: 12, Y: 20}} {
			subs = append(subs, scenario.Subscriber{Pos: geom.Pt(c.X+d.X, c.Y+d.Y), DistReq: 30})
		}
	}
	sc := handScenario(t, subs, -10)
	for _, m := range spanMethods {
		for _, workers := range []int{1, 4} {
			direct, total, zones := zoneSpanCounts(t, sc, m.name, m.run, workers)
			if zones < 2 {
				t.Fatalf("%s: %d zones; the scenario must have several", m.name, zones)
			}
			if direct["zone_partition"] != 1 || total["zone_partition"] != 1 {
				t.Errorf("%s(workers=%d): %d zone_partition spans, %d under the root; want 1",
					m.name, workers, total["zone_partition"], direct["zone_partition"])
			}
			if direct["zone"] != zones || total["zone"] != zones {
				t.Errorf("%s(workers=%d): %d zone spans, %d under the root, for %d zones",
					m.name, workers, total["zone"], direct["zone"], zones)
			}
		}
	}
}

// TestSAMCZoneSpanCarriesLocalSearch: every SAMC zone span records what
// local search did to the zone's hitting set, as greedy_size and ls_rounds
// beside relays.
func TestSAMCZoneSpanCarriesLocalSearch(t *testing.T) {
	sc := testScenario(t, 800, 40, 1)
	tr := obs.NewTrace("root")
	res, err := SAMC(obs.WithTrace(context.Background(), tr), sc, SAMCOptions{})
	if err != nil || !res.Feasible {
		t.Fatalf("SAMC: feasible=%v err=%v", res != nil && res.Feasible, err)
	}
	tr.Finish()
	zones := 0
	for _, z := range tr.Doc().Spans {
		if z.Name != "zone" {
			continue
		}
		zones++
		greedy, err1 := strconv.Atoi(z.Attrs["greedy_size"])
		rounds, err2 := strconv.Atoi(z.Attrs["ls_rounds"])
		if err1 != nil || err2 != nil || greedy < 1 || rounds < 1 {
			t.Errorf("zone span attrs %v: want greedy_size and ls_rounds >= 1", z.Attrs)
		}
	}
	if zones != len(res.Zones) {
		t.Fatalf("%d zone spans for %d zones", zones, len(res.Zones))
	}
}
