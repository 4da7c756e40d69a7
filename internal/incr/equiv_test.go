package incr_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"sagrelay/internal/core"
	"sagrelay/internal/geom"
	"sagrelay/internal/incr"
	"sagrelay/internal/lower"
	"sagrelay/internal/milp"
	"sagrelay/internal/scenario"
	"sagrelay/internal/upper"
)

func solveCfg(method core.CoverageMethod) core.Config {
	return core.Config{
		Coverage:          method,
		CoveragePower:     core.PowerGreen,
		Connectivity:      core.ConnMBMC,
		ConnectivityPower: core.PowerGreen,
	}
}

// fingerprint flattens everything deterministic about a solution — every
// relay, cover assignment, tree edge and power — into comparable bytes.
// Wall-clock fields are deliberately absent.
func fingerprint(t *testing.T, sol *core.Solution) string {
	t.Helper()
	type fp struct {
		Method         string
		Feasible       bool
		Degraded       bool
		Reason         string
		PL, PH, PTotal float64
		Relays         []lower.Relay
		Assign         []int
		Zones          [][]int
		CovPowers      []float64
		Edges          []upper.TreeEdge
		ConnRelays     []upper.ConnRelay
		ConnPowers     []float64
	}
	f := fp{
		Method:   sol.Method,
		Feasible: sol.Feasible,
		Degraded: sol.Degraded,
		Reason:   sol.DegradedReason,
		PL:       sol.PL, PH: sol.PH, PTotal: sol.PTotal,
	}
	if sol.Coverage != nil {
		f.Relays, f.Assign, f.Zones = sol.Coverage.Relays, sol.Coverage.AssignOf, sol.Coverage.Zones
	}
	if sol.CoveragePower != nil {
		f.CovPowers = sol.CoveragePower.Powers
	}
	if sol.Connectivity != nil {
		f.Edges, f.ConnRelays = sol.Connectivity.Edges, sol.Connectivity.Relays
	}
	if sol.ConnectivityPower != nil {
		f.ConnPowers = sol.ConnectivityPower.Powers
	}
	b, err := json.Marshal(&f)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return string(b)
}

func mustRun(t *testing.T, sc *scenario.Scenario, cfg core.Config) *core.Solution {
	t.Helper()
	sol, err := core.Run(context.Background(), sc, cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	return sol
}

// clusteredScenario builds a pinned multi-zone instance: three well-
// separated subscriber clusters whose coverage circles cannot overlap, so
// ZonePartition yields (at least) three zones deterministically.
func clusteredScenario(t *testing.T, perCluster int) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 600, NumSS: 3 * perCluster, NumBS: 2, SNRdB: -15, Seed: 17,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	centers := []geom.Point{{X: 100, Y: 100}, {X: 500, Y: 100}, {X: 300, Y: 500}}
	rng := rand.New(rand.NewSource(99))
	for i := range sc.Subscribers {
		c := centers[i/perCluster]
		sc.Subscribers[i].Pos = geom.Point{
			X: c.X + rng.Float64()*40 - 20,
			Y: c.Y + rng.Float64()*40 - 20,
		}
		sc.Subscribers[i].DistReq = 30 + rng.Float64()*10
		sc.Subscribers[i].MinRxPower = sc.DeriveMinRxPower(sc.Subscribers[i].DistReq)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("clustered scenario invalid: %v", err)
	}
	return sc
}

// scriptedDeltas covers every mutation kind against the current scenario,
// including a zone-emptying removal and a partition-changing long move.
func scriptedDeltas(t *testing.T, sc *scenario.Scenario, nextID *int) []*scenario.Delta {
	t.Helper()
	d := func(ops ...scenario.DeltaOp) *scenario.Delta {
		return &scenario.Delta{Version: scenario.DeltaVersion, Ops: ops}
	}
	// Pick a zone-emptying victim: a subscriber forming a singleton zone if
	// one exists, else any subscriber (still a legal removal).
	zones, err := lower.ZonePartition(sc)
	if err != nil {
		t.Fatalf("ZonePartition: %v", err)
	}
	victim := sc.Subscribers[0].ID
	for _, z := range zones {
		if len(z) == 1 {
			victim = sc.Subscribers[z[0]].ID
			break
		}
	}
	s0 := sc.Subscribers[len(sc.Subscribers)/2]
	*nextID++
	addID := *nextID
	*nextID++
	bsID := *nextID
	return []*scenario.Delta{
		// Small move: dirties one zone.
		d(scenario.DeltaOp{Op: scenario.OpMoveSS, ID: s0.ID,
			Pos: &geom.Point{X: s0.Pos.X + 7, Y: s0.Pos.Y + 3}}),
		// Long move across the field: changes the zone partition on both
		// sides (leaves one zone, enters or creates another).
		d(scenario.DeltaOp{Op: scenario.OpMoveSS, ID: s0.ID,
			Pos: &geom.Point{X: 555, Y: 480}}),
		// Traffic change: new demand radius, derived receive floor.
		d(scenario.DeltaOp{Op: scenario.OpTrafficSS, ID: sc.Subscribers[1].ID, DistReq: 22}),
		// Add a subscriber (may merge zones it lands between).
		d(scenario.DeltaOp{Op: scenario.OpAddSS, ID: addID,
			Pos: &geom.Point{X: 320, Y: 140}, DistReq: 28}),
		// Remove the zone-emptying victim.
		d(scenario.DeltaOp{Op: scenario.OpRemoveSS, ID: victim}),
		// Base-station add then remove (upper tier re-runs, lower reuses).
		d(scenario.DeltaOp{Op: scenario.OpAddBS, ID: bsID, Pos: &geom.Point{X: 50, Y: 560}}),
		d(scenario.DeltaOp{Op: scenario.OpRemoveBS, ID: bsID}),
	}
}

// TestIncrEquivalence is the central invariant of the incremental engine: a
// solve of the mutated scenario through warmed zone-level stores must be
// identical — relay for relay, float for float — to a cold solve with no
// caches at all. It storms scripted deltas of every mutation kind plus a
// random tail, for both the heuristic (SAMC) and exact (IAC) pipelines.
func TestIncrEquivalence(t *testing.T) {
	for _, method := range []core.CoverageMethod{core.CoverSAMC, core.CoverIAC} {
		t.Run(method.String(), func(t *testing.T) {
			sc, err := scenario.Generate(scenario.GenConfig{
				FieldSide: 450, NumSS: 14, NumBS: 2, SNRdB: -15, Seed: 23,
			})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			stores := incr.NewStores(0)
			cfgIncr := solveCfg(method)
			stores.Wire(&cfgIncr)
			cfgCold := solveCfg(method)

			mustRun(t, sc, cfgIncr) // warm the stores on the base

			// Identical re-solve: every zone must splice. For the exact
			// pipeline that means literally zero branch-and-bound nodes.
			resolved0 := incr.ZonesResolved()
			nodes0 := milp.TotalNodes()
			again := mustRun(t, sc, cfgIncr)
			if got := incr.ZonesResolved() - resolved0; got != 0 {
				t.Errorf("identical re-solve re-solved %d zones, want 0", got)
			}
			if method != core.CoverSAMC {
				if got := milp.TotalNodes() - nodes0; got != 0 {
					t.Errorf("identical re-solve explored %d B&B nodes, want 0", got)
				}
			}
			if fingerprint(t, again) != fingerprint(t, mustRun(t, sc, cfgCold)) {
				t.Fatal("identical re-solve differs from cold solve")
			}

			nextID := 9000
			cur := sc
			check := func(tag string, d *scenario.Delta) {
				mut, err := d.Apply(cur)
				if err != nil {
					t.Fatalf("%s: Apply: %v", tag, err)
				}
				inc := mustRun(t, mut, cfgIncr)
				cold := mustRun(t, mut, cfgCold)
				if fingerprint(t, inc) != fingerprint(t, cold) {
					t.Fatalf("%s: incremental solve differs from cold solve\nincr: %s\ncold: %s",
						tag, fingerprint(t, inc), fingerprint(t, cold))
				}
				cur = mut
			}
			for i, d := range scriptedDeltas(t, cur, &nextID) {
				check(d.Ops[0].Op+"#"+string(rune('0'+i)), d)
			}
			rng := rand.New(rand.NewSource(31))
			for round := 0; round < 6; round++ {
				d := randomStormDelta(rng, cur, &nextID)
				if _, err := d.Apply(cur); err != nil {
					continue // random op hit a constraint (e.g. coincidence)
				}
				check("storm", d)
			}
		})
	}
}

func randomStormDelta(rng *rand.Rand, sc *scenario.Scenario, nextID *int) *scenario.Delta {
	pick := func() int { return sc.Subscribers[rng.Intn(len(sc.Subscribers))].ID }
	pos := func() *geom.Point {
		return &geom.Point{X: rng.Float64() * 450, Y: rng.Float64() * 450}
	}
	var op scenario.DeltaOp
	switch rng.Intn(4) {
	case 0:
		*nextID++
		op = scenario.DeltaOp{Op: scenario.OpAddSS, ID: *nextID, Pos: pos(), DistReq: 18 + rng.Float64()*20}
	case 1:
		op = scenario.DeltaOp{Op: scenario.OpMoveSS, ID: pick(), Pos: pos()}
	case 2:
		if len(sc.Subscribers) > 4 {
			op = scenario.DeltaOp{Op: scenario.OpRemoveSS, ID: pick()}
		} else {
			op = scenario.DeltaOp{Op: scenario.OpMoveSS, ID: pick(), Pos: pos()}
		}
	default:
		op = scenario.DeltaOp{Op: scenario.OpTrafficSS, ID: pick(), DistReq: 18 + rng.Float64()*20}
	}
	return &scenario.Delta{Version: scenario.DeltaVersion, Ops: []scenario.DeltaOp{op}}
}

// TestIncrSingleMoveReuse proves the headline claim with counters: on a
// pinned multi-zone instance, moving one subscriber re-solves some zones and
// splices the rest, and every zone of the mutated partition is one or the
// other.
func TestIncrSingleMoveReuse(t *testing.T) {
	sc := clusteredScenario(t, 5)
	stores := incr.NewStores(0)
	cfg := solveCfg(core.CoverIAC)
	stores.Wire(&cfg)
	mustRun(t, sc, cfg)

	s0 := sc.Subscribers[0]
	d := &scenario.Delta{Version: scenario.DeltaVersion, Ops: []scenario.DeltaOp{
		{Op: scenario.OpMoveSS, ID: s0.ID, Pos: &geom.Point{X: s0.Pos.X + 5, Y: s0.Pos.Y - 4}},
	}}
	mut, err := d.Apply(sc)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// The partition an IAC solve of mut uses: Alg. 2, then the sub-zone
	// split at the default cap (cfg leaves ILP.MaxZoneSS zero).
	zones, err := lower.ZonePartition(mut)
	if err != nil {
		t.Fatalf("ZonePartition: %v", err)
	}
	zones = lower.SplitLargeZones(mut, zones, lower.DefaultMaxZoneSS)
	if len(zones) < 3 {
		t.Fatalf("instance has %d zones, want >= 3 (not multi-zone)", len(zones))
	}

	reused0, resolved0 := incr.ZonesReused(), incr.ZonesResolved()
	mustRun(t, mut, cfg)
	resolved := incr.ZonesResolved() - resolved0
	reused := incr.ZonesReused() - reused0
	if resolved == 0 {
		t.Error("re-solved 0 zones; the move should change at least one")
	}
	if reused == 0 {
		t.Error("reused 0 zones; the zones the move left alone must splice")
	}
	if got := reused + resolved; got != int64(len(zones)) {
		t.Errorf("reused %d + re-solved %d = %d zones, want the partition's %d",
			reused, resolved, got, len(zones))
	}
}
