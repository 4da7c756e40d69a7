package lower

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"sagrelay/internal/geom"
	"sagrelay/internal/scenario"
)

func TestDistanceCoverageIgnoresSNR(t *testing.T) {
	// A +20 dB threshold makes SAMC infeasible on dense overlapping
	// subscribers, but the DARP lower tier does not care.
	sc := handScenario(t, []scenario.Subscriber{
		{Pos: geom.Pt(0, 0), DistReq: 40},
		{Pos: geom.Pt(50, 0), DistReq: 40},
		{Pos: geom.Pt(100, 0), DistReq: 40},
		{Pos: geom.Pt(150, 0), DistReq: 40},
	}, 20)
	darp, err := DistanceCoverage(context.Background(), sc, SAMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !darp.Feasible {
		t.Fatal("distance-only coverage infeasible")
	}
	if err := darp.Verify(sc, false); err != nil {
		t.Fatalf("distance verification failed: %v", err)
	}
	// The SNR audit should reveal violations at this absurd threshold
	// whenever more than one relay was placed.
	v, err := SNRViolations(context.Background(), sc, darp)
	if err != nil {
		t.Fatal(err)
	}
	if darp.NumRelays() > 1 && v == 0 {
		t.Error("no SNR violations at +20 dB despite multiple relays")
	}
}

func TestDistanceCoverageMatchesSAMCCount(t *testing.T) {
	// Both use the same hitting set machinery, so on SNR-benign instances
	// the counts agree (SAMC only moves relays).
	sc := testScenario(t, 500, 15, 61)
	samc, err := SAMC(context.Background(), sc, SAMCOptions{})
	if err != nil || !samc.Feasible {
		t.Fatalf("SAMC failed")
	}
	darp, err := DistanceCoverage(context.Background(), sc, SAMCOptions{})
	if err != nil || !darp.Feasible {
		t.Fatalf("DistanceCoverage failed")
	}
	if samc.NumRelays() != darp.NumRelays() {
		t.Errorf("counts differ: SAMC %d, DARP %d", samc.NumRelays(), darp.NumRelays())
	}
}

func TestSNRViolationsZeroOnSAMC(t *testing.T) {
	sc := testScenario(t, 500, 12, 67)
	samc, err := SAMC(context.Background(), sc, SAMCOptions{})
	if err != nil || !samc.Feasible {
		t.Fatalf("SAMC failed")
	}
	v, err := SNRViolations(context.Background(), sc, samc)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("SAMC result has %d SNR violations", v)
	}
}

func TestDualCoverageBasics(t *testing.T) {
	sc := testScenario(t, 500, 12, 71)
	dual, err := DualCoverage(context.Background(), sc, SAMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !dual.Feasible {
		t.Skip("2-fold coverage uncoverable on this draw")
	}
	if err := dual.VerifyDual(sc); err != nil {
		t.Fatalf("VerifyDual: %v", err)
	}
	// Dual coverage needs at least as many relays as single coverage.
	single, err := SAMC(context.Background(), sc, SAMCOptions{})
	if err != nil || !single.Feasible {
		t.Fatalf("SAMC failed")
	}
	if dual.NumRelays() < single.NumRelays() {
		t.Errorf("dual %d relays below single %d", dual.NumRelays(), single.NumRelays())
	}
	// Every single relay failure is survivable.
	for k := range dual.Relays {
		if !dual.SurvivesSingleFailure(k) {
			t.Errorf("failure of relay %d uncovers a subscriber", k)
		}
	}
}

func TestDualCoverageTwoSubscribers(t *testing.T) {
	// Two overlapping subscribers: their circles intersect in two points
	// plus centers, so 2-fold coverage is achievable with 2 relays.
	sc := handScenario(t, []scenario.Subscriber{
		{Pos: geom.Pt(0, 0), DistReq: 40},
		{Pos: geom.Pt(30, 0), DistReq: 40},
	}, -15)
	dual, err := DualCoverage(context.Background(), sc, SAMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !dual.Feasible {
		t.Fatal("2-fold coverage of overlapping pair infeasible")
	}
	if err := dual.VerifyDual(sc); err != nil {
		t.Fatal(err)
	}
	if dual.NumRelays() < 2 {
		t.Errorf("dual coverage with %d relays", dual.NumRelays())
	}
}

func TestDualCoverageUncoverable(t *testing.T) {
	// A single isolated subscriber has only one candidate (its center):
	// 2-fold coverage is impossible over intersection candidates.
	sc := handScenario(t, []scenario.Subscriber{
		{Pos: geom.Pt(0, 0), DistReq: 30},
	}, -15)
	dual, err := DualCoverage(context.Background(), sc, SAMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dual.Feasible {
		t.Error("isolated subscriber reported 2-fold coverable")
	}
}

func TestSurvivesSingleFailureDetectsCorruption(t *testing.T) {
	dual := &DualResult{
		Result:   Result{AssignOf: []int{0, 1}},
		BackupOf: []int{0, 0}, // subscriber 0's backup == primary: corrupt
	}
	if dual.SurvivesSingleFailure(0) {
		t.Error("corrupted placement reported survivable")
	}
	if !dual.SurvivesSingleFailure(1) {
		t.Error("unrelated failure reported fatal")
	}
}

// Property: on random benign instances, a feasible dual coverage always
// passes VerifyDual and survives every single relay failure.
func TestDualCoverageProperty(t *testing.T) {
	f := func(seed int64) bool {
		sc, err := scenario.Generate(scenario.GenConfig{FieldSide: 500, NumSS: 10, NumBS: 2, Seed: seed})
		if err != nil {
			return false
		}
		dual, err := DualCoverage(context.Background(), sc, SAMCOptions{})
		if err != nil {
			return false
		}
		if !dual.Feasible {
			return true // isolated subscribers make 2-fold coverage impossible
		}
		if dual.VerifyDual(sc) != nil {
			return false
		}
		for k := range dual.Relays {
			if !dual.SurvivesSingleFailure(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestTheorem1Bound empirically validates Theorem 1: PRO's power cost is
// within (1+phi) of optimal with phi = sum_i (Psnr_i - Pc_i) / OPT over
// the relays where PRO settled above coverage power — and in particular
// PRO <= OPT + sum(max(0, Psnr-Pc)).
func TestTheorem1Bound(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		sc, err := scenario.Generate(scenario.GenConfig{FieldSide: 500, NumSS: 15, NumBS: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := SAMC(context.Background(), sc, SAMCOptions{})
		if err != nil || !res.Feasible {
			continue
		}
		pro, err := PRO(context.Background(), sc, res)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := OptimalPower(context.Background(), sc, res)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := newPowerContext(sc, res)
		if err != nil {
			t.Fatal(err)
		}
		// Slack: sum over relays of (final PRO power - coverage power),
		// an upper bound on sum(Psnr - Pc) over the compromise set C.
		slack := 0.0
		for i, p := range pro.Powers {
			if d := p - ctx.pmin[i]; d > 0 {
				slack += d
			}
		}
		if pro.Total > opt.Total+slack+1e-6 {
			t.Errorf("seed %d: PRO %v exceeds OPT %v + slack %v", seed, pro.Total, opt.Total, slack)
		}
		if pro.Total < opt.Total-1e-6 {
			t.Errorf("seed %d: PRO %v below the LP optimum %v", seed, pro.Total, opt.Total)
		}
	}
}

// countingCache is a ZoneCache that stores entries in a map and counts
// every call.
type countingCache struct {
	entries   map[string]*ZoneEntry
	gets, put int
}

func (c *countingCache) Get(key string) (*ZoneEntry, bool, error) {
	c.gets++
	e, ok := c.entries[key]
	return e, ok, nil
}

func (c *countingCache) Put(key string, e *ZoneEntry) {
	c.put++
	if c.entries == nil {
		c.entries = map[string]*ZoneEntry{}
	}
	c.entries[key] = e
}

// TestHittingSetCoversNeverTouchZoneCache: DistanceCoverage and
// DualCoverage take SAMCOptions, whose Cache holds SAMC's SNR-slid
// placements under samcZoneKey. Splicing those into a distance-only or a
// 2-fold cover would change its answer, so both covers must leave the
// cache alone and answer as they do without one.
func TestHittingSetCoversNeverTouchZoneCache(t *testing.T) {
	sc := testScenario(t, 500, 12, 71)
	warm := &countingCache{}
	if _, err := SAMC(context.Background(), sc, SAMCOptions{Cache: warm}); err != nil {
		t.Fatal(err)
	}
	if warm.put == 0 {
		t.Fatal("SAMC stored no zone; the cache under test is not wired")
	}
	cache := &countingCache{entries: warm.entries}

	plain, err := DistanceCoverage(context.Background(), sc, SAMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := DistanceCoverage(context.Background(), sc, SAMCOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	plain.Elapsed, cached.Elapsed = 0, 0
	if !reflect.DeepEqual(plain, cached) {
		t.Errorf("DistanceCoverage with a cache differs:\n%+v\n%+v", cached, plain)
	}

	plainDual, err := DualCoverage(context.Background(), sc, SAMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cachedDual, err := DualCoverage(context.Background(), sc, SAMCOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	plainDual.Elapsed, cachedDual.Elapsed = 0, 0
	if !reflect.DeepEqual(plainDual, cachedDual) {
		t.Errorf("DualCoverage with a cache differs:\n%+v\n%+v", cachedDual, plainDual)
	}

	if cache.gets != 0 || cache.put != 0 {
		t.Errorf("hitting-set covers made %d Get and %d Put calls, want 0", cache.gets, cache.put)
	}
}
