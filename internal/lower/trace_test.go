package lower

import (
	"context"
	"strconv"
	"testing"

	"sagrelay/internal/obs"
)

// zoneSpanCounts runs one IAC solve with the given worker count and returns
// (direct children of the trace root named "zone", total "zone" spans
// anywhere in the tree). The two must agree: a zone span nested under
// another zone's span would mean a worker attached to the wrong parent.
func zoneSpanCounts(t *testing.T, workers int) (direct, total int) {
	t.Helper()
	sc := testScenario(t, 500, 15, 41)
	tr := obs.NewTrace("root")
	ctx := obs.WithTrace(context.Background(), tr)
	res, err := IAC(ctx, sc, ILPOptions{Workers: workers})
	if err != nil {
		t.Fatalf("IAC(workers=%d): %v", workers, err)
	}
	if !res.Feasible {
		t.Fatalf("IAC(workers=%d) infeasible", workers)
	}
	tr.Finish()
	doc := tr.Doc()
	for _, c := range doc.Spans {
		if c.Name == "zone" {
			direct++
		}
	}
	return direct, doc.Count("zone")
}

// TestZoneSpansLandUnderRootParallel: with Workers > 1 the per-zone spans
// are opened on pool-worker goroutines, yet every one of them must attach
// directly under the span that was on the context at fan-out time — the
// trace root here. Run under -race this also exercises the concurrent
// child-append path.
func TestZoneSpansLandUnderRootParallel(t *testing.T) {
	direct, total := zoneSpanCounts(t, 4)
	if total == 0 {
		t.Fatal("no zone spans recorded")
	}
	if direct != total {
		t.Fatalf("%d of %d zone spans are direct children of the root; workers attached to the wrong parent", direct, total)
	}

	seqDirect, seqTotal := zoneSpanCounts(t, 1)
	if seqDirect != direct || seqTotal != total {
		t.Fatalf("zone span tree differs by worker count: sequential %d/%d, parallel %d/%d",
			seqDirect, seqTotal, direct, total)
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
