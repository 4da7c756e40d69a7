package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"sagrelay/internal/geom"
)

func deltaTestScenario(t *testing.T, seed int64, numSS int) *Scenario {
	t.Helper()
	sc, err := Generate(GenConfig{FieldSide: 400, NumSS: numSS, NumBS: 2, SNRdB: -15, Seed: seed})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return sc
}

func TestDeltaJSONRoundTrip(t *testing.T) {
	d := &Delta{
		Version: DeltaVersion,
		Ops: []DeltaOp{
			{Op: OpAddSS, ID: 99, Pos: &geom.Point{X: 10, Y: 20}, DistReq: 30},
			{Op: OpMoveSS, ID: 0, Pos: &geom.Point{X: 1, Y: 2}},
			{Op: OpRemoveSS, ID: 1},
			{Op: OpTrafficSS, ID: 2, DistReq: 25},
			{Op: OpAddBS, ID: 7, Pos: &geom.Point{X: 5, Y: 5}},
			{Op: OpRemoveBS, ID: 1},
		},
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseDelta(data)
	if err != nil {
		t.Fatalf("ParseDelta: %v", err)
	}
	data2, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("round trip changed bytes:\n%s\n%s", data, data2)
	}
}

func TestDeltaValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		d    Delta
	}{
		{"bad version", Delta{Version: "sagdelta/0"}},
		{"unknown op", Delta{Version: DeltaVersion, Ops: []DeltaOp{{Op: "teleport_ss", ID: 1}}}},
		{"add_ss missing pos", Delta{Version: DeltaVersion, Ops: []DeltaOp{{Op: OpAddSS, ID: 1, DistReq: 10}}}},
		{"add_ss bad dist", Delta{Version: DeltaVersion, Ops: []DeltaOp{{Op: OpAddSS, ID: 1, Pos: &geom.Point{}, DistReq: -3}}}},
		{"move_ss missing pos", Delta{Version: DeltaVersion, Ops: []DeltaOp{{Op: OpMoveSS, ID: 1}}}},
		{"traffic_ss empty", Delta{Version: DeltaVersion, Ops: []DeltaOp{{Op: OpTrafficSS, ID: 1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.d.Validate()
			if !errors.Is(err, ErrBadDelta) {
				t.Fatalf("err = %v, want ErrBadDelta", err)
			}
			var de *DeltaError
			if !errors.As(err, &de) {
				t.Fatalf("err %T is not *DeltaError", err)
			}
		})
	}
}

func TestDeltaApplyUnknownEntity(t *testing.T) {
	sc := deltaTestScenario(t, 1, 8)
	cases := []DeltaOp{
		{Op: OpMoveSS, ID: 9999, Pos: &geom.Point{X: 1, Y: 1}},
		{Op: OpRemoveSS, ID: 9999},
		{Op: OpTrafficSS, ID: 9999, DistReq: 20},
		{Op: OpRemoveBS, ID: 9999},
		{Op: OpAddSS, ID: sc.Subscribers[0].ID, Pos: &geom.Point{X: 1, Y: 1}, DistReq: 20}, // duplicate ID
		{Op: OpAddBS, ID: sc.BaseStations[0].ID, Pos: &geom.Point{X: 2, Y: 2}},
	}
	for _, op := range cases {
		t.Run(op.Op, func(t *testing.T) {
			d := &Delta{Version: DeltaVersion, Ops: []DeltaOp{op}}
			if _, err := d.Apply(sc); !errors.Is(err, ErrUnknownEntity) {
				t.Fatalf("err = %v, want ErrUnknownEntity", err)
			}
		})
	}
}

func TestDeltaApplyPureAndOrdered(t *testing.T) {
	sc := deltaTestScenario(t, 2, 8)
	before := string(sc.CanonicalBytes())
	d := &Delta{Version: DeltaVersion, Ops: []DeltaOp{
		{Op: OpAddSS, ID: 500, Pos: &geom.Point{X: 50, Y: 60}, DistReq: 25},
		{Op: OpMoveSS, ID: 500, Pos: &geom.Point{X: 70, Y: 80}}, // addresses the op-1 add
		{Op: OpRemoveSS, ID: sc.Subscribers[0].ID},
	}}
	mut, err := d.Apply(sc)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := string(sc.CanonicalBytes()); got != before {
		t.Fatal("Apply modified the base scenario")
	}
	j := mut.findSS(500)
	if j < 0 {
		t.Fatal("added subscriber missing")
	}
	if mut.Subscribers[j].Pos != (geom.Point{X: 70, Y: 80}) {
		t.Fatalf("ops not applied in order: pos = %v", mut.Subscribers[j].Pos)
	}
	if mut.Subscribers[j].MinRxPower <= 0 {
		t.Fatalf("add_ss did not derive min_rx_power: %v", mut.Subscribers[j].MinRxPower)
	}
	if mut.findSS(sc.Subscribers[0].ID) >= 0 {
		t.Fatal("removed subscriber still present")
	}
}

func TestValidateRejectsCoincident(t *testing.T) {
	sc := deltaTestScenario(t, 3, 6)
	sc.Subscribers[2].Pos = sc.Subscribers[4].Pos
	err := sc.Validate()
	if !errors.Is(err, ErrCoincident) {
		t.Fatalf("err = %v, want ErrCoincident", err)
	}
	var ce *CoincidentError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not *CoincidentError", err)
	}
	if ce.Kind != "subscriber" || ce.ID1 != sc.Subscribers[2].ID || ce.ID2 != sc.Subscribers[4].ID {
		t.Fatalf("CoincidentError = %+v", ce)
	}

	sc2 := deltaTestScenario(t, 3, 6)
	sc2.BaseStations[0].Pos = sc2.BaseStations[1].Pos
	if err := sc2.Validate(); !errors.Is(err, ErrCoincident) {
		t.Fatalf("bs err = %v, want ErrCoincident", err)
	}

	// A subscriber and a base station may share a position: the coincident
	// rule is same-type only.
	sc3 := deltaTestScenario(t, 3, 6)
	sc3.Subscribers[0].Pos = sc3.BaseStations[0].Pos
	if err := sc3.Validate(); err != nil {
		t.Fatalf("cross-type coincidence rejected: %v", err)
	}

	// Deltas surface it too: moving one subscriber onto another fails.
	sc4 := deltaTestScenario(t, 3, 6)
	d := &Delta{Version: DeltaVersion, Ops: []DeltaOp{
		{Op: OpMoveSS, ID: sc4.Subscribers[0].ID, Pos: &sc4.Subscribers[1].Pos},
	}}
	if _, err := d.Apply(sc4); !errors.Is(err, ErrCoincident) {
		t.Fatalf("delta err = %v, want ErrCoincident", err)
	}
}

// TestDeltaApplyHashConsistency fuzzes random valid deltas: applying the
// same delta to the same base twice must produce identical canonical bytes,
// and a delta that changes any subscriber must change the canonical hash.
func TestDeltaApplyHashConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := deltaTestScenario(t, 4, 12)
	nextID := 1000
	for round := 0; round < 50; round++ {
		d := randomDelta(rng, sc, &nextID)
		m1, err1 := d.Apply(sc)
		m2, err2 := d.Apply(sc)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("round %d: nondeterministic error: %v vs %v", round, err1, err2)
		}
		if err1 != nil {
			continue // e.g. a random move landed on another subscriber
		}
		if m1.CanonicalHash() != m2.CanonicalHash() {
			t.Fatalf("round %d: same delta, different hashes", round)
		}
		if len(d.Ops) > 0 && m1.CanonicalHash() == sc.CanonicalHash() {
			t.Fatalf("round %d: mutation did not change the canonical hash (%+v)", round, d.Ops)
		}
		sc = m1 // walk the chain so later rounds hit varied shapes
	}
}

// TestDeltaApplyEqualsDirectConstruction: applying a delta must hash
// identically to building the same mutated scenario by hand — Apply adds no
// hidden state of its own.
func TestDeltaApplyEqualsDirectConstruction(t *testing.T) {
	sc := deltaTestScenario(t, 6, 10)
	moveTo := geom.Point{X: 333, Y: 222}
	addPos := geom.Point{X: 44, Y: 55}
	d := &Delta{Version: DeltaVersion, Ops: []DeltaOp{
		{Op: OpMoveSS, ID: sc.Subscribers[3].ID, Pos: &moveTo},
		{Op: OpRemoveSS, ID: sc.Subscribers[7].ID},
		{Op: OpAddSS, ID: 777, Pos: &addPos, DistReq: 26},
	}}
	mut, err := d.Apply(sc)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}

	direct := sc.clone()
	direct.Subscribers[3].Pos = moveTo
	direct.Subscribers = append(direct.Subscribers[:7], direct.Subscribers[8:]...)
	direct.Subscribers = append(direct.Subscribers, Subscriber{
		ID: 777, Pos: addPos, DistReq: 26, MinRxPower: direct.DeriveMinRxPower(26),
	})
	if err := direct.Validate(); err != nil {
		t.Fatalf("direct construction invalid: %v", err)
	}
	if mut.CanonicalHash() != direct.CanonicalHash() {
		t.Fatalf("Apply hash %s != directly-constructed hash %s",
			mut.CanonicalHash(), direct.CanonicalHash())
	}
}

func randomDelta(rng *rand.Rand, sc *Scenario, nextID *int) *Delta {
	pick := func() int { return sc.Subscribers[rng.Intn(len(sc.Subscribers))].ID }
	pos := func() *geom.Point {
		return &geom.Point{X: rng.Float64() * 400, Y: rng.Float64() * 400}
	}
	var op DeltaOp
	switch rng.Intn(4) {
	case 0:
		*nextID++
		op = DeltaOp{Op: OpAddSS, ID: *nextID, Pos: pos(), DistReq: 15 + rng.Float64()*30}
	case 1:
		op = DeltaOp{Op: OpMoveSS, ID: pick(), Pos: pos()}
	case 2:
		if len(sc.Subscribers) <= 2 {
			op = DeltaOp{Op: OpMoveSS, ID: pick(), Pos: pos()}
		} else {
			op = DeltaOp{Op: OpRemoveSS, ID: pick()}
		}
	default:
		op = DeltaOp{Op: OpTrafficSS, ID: pick(), DistReq: 15 + rng.Float64()*30}
	}
	return &Delta{Version: DeltaVersion, Ops: []DeltaOp{op}}
}

func TestZoneHashVariants(t *testing.T) {
	sc := deltaTestScenario(t, 5, 10)
	zone := []int{0, 2, 4}
	same := func(a, b *Scenario, za, zb []int) bool {
		return bytes.Equal(a.CanonicalZoneBytes(za), b.CanonicalZoneBytes(zb))
	}

	// Stable under re-encoding, sensitive to membership.
	if !same(sc, sc, zone, zone) {
		t.Fatal("zone bytes not deterministic")
	}
	if same(sc, sc, zone, []int{0, 2, 5}) {
		t.Fatal("different membership, same zone bytes")
	}

	// Subscriber IDs are excluded: renumbering IDs must not change the bytes.
	renum := sc.clone()
	for i := range renum.Subscribers {
		renum.Subscribers[i].ID += 1000
	}
	if !same(sc, renum, zone, zone) {
		t.Fatal("ID renumbering changed the coverage zone bytes")
	}

	// Coverage placement never reads MinRxPower, so neither do the bytes.
	bumped := sc.clone()
	bumped.Subscribers[2].MinRxPower *= 2
	if !same(sc, bumped, zone, zone) {
		t.Fatal("MinRxPower changed the coverage zone bytes")
	}

	// A subscriber outside the zone is invisible to the zone bytes.
	other := sc.clone()
	other.Subscribers[1].Pos.X += 17
	if !same(sc, other, zone, zone) {
		t.Fatal("non-member change affected the zone bytes")
	}
}
