package scenario

import (
	"errors"
	"math"
	"testing"

	"sagrelay/internal/geom"
)

func validateScenario(t *testing.T) *Scenario {
	t.Helper()
	return genOrFail(t, GenConfig{FieldSide: 800, NumSS: 40, NumBS: 3, SNRdB: -15, Seed: 1})
}

// TestValidateValueErrors pins every numeric field Validate checks: its
// Field path, rejected Value, wrapped sentinel and full message.
func TestValidateValueErrors(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*Scenario)
		field  string
		value  float64
		is     error
		msg    string
	}{
		{"field min x", func(sc *Scenario) { sc.Field.Min.X = nan }, "field.min.x", nan, ErrNonFinite,
			"scenario: non-finite value: field.min.x = NaN"},
		{"field min y", func(sc *Scenario) { sc.Field.Min.Y = -inf }, "field.min.y", -inf, ErrNonFinite,
			"scenario: non-finite value: field.min.y = -Inf"},
		{"field max x", func(sc *Scenario) { sc.Field.Max.X = inf }, "field.max.x", inf, ErrNonFinite,
			"scenario: non-finite value: field.max.x = +Inf"},
		{"field max y", func(sc *Scenario) { sc.Field.Max.Y = nan }, "field.max.y", nan, ErrNonFinite,
			"scenario: non-finite value: field.max.y = NaN"},
		{"field width", func(sc *Scenario) { sc.Field.Max.X = sc.Field.Min.X }, "field.width", 0, ErrNonPositive,
			"scenario: non-positive value: field.width = 0"},
		{"field height", func(sc *Scenario) { sc.Field.Max.Y = sc.Field.Min.Y - 5 }, "field.height", -5, ErrNonPositive,
			"scenario: non-positive value: field.height = -5"},
		{"p_max zero", func(sc *Scenario) { sc.PMax = 0 }, "p_max", 0, ErrNonPositive,
			"scenario: non-positive value: p_max = 0"},
		{"p_max nan", func(sc *Scenario) { sc.PMax = nan }, "p_max", nan, ErrNonFinite,
			"scenario: non-finite value: p_max = NaN"},
		{"n_max", func(sc *Scenario) { sc.NMax = -1e-9 }, "n_max", -1e-9, ErrNonPositive,
			"scenario: non-positive value: n_max = -1e-09"},
		{"snr", func(sc *Scenario) { sc.SNRThresholdDB = inf }, "snr_threshold_db", inf, ErrNonFinite,
			"scenario: non-finite value: snr_threshold_db = +Inf"},
		{"ss pos x", func(sc *Scenario) { sc.Subscribers[3].Pos.X = nan }, "subscriber[3].pos.x", nan, ErrNonFinite,
			"scenario: non-finite value: subscriber[3].pos.x = NaN"},
		{"ss pos y", func(sc *Scenario) { sc.Subscribers[3].Pos.Y = -inf }, "subscriber[3].pos.y", -inf, ErrNonFinite,
			"scenario: non-finite value: subscriber[3].pos.y = -Inf"},
		{"ss dist_req zero", func(sc *Scenario) { sc.Subscribers[3].DistReq = 0 }, "subscriber[3].dist_req", 0, ErrNonPositive,
			"scenario: non-positive value: subscriber[3].dist_req = 0"},
		{"ss dist_req inf", func(sc *Scenario) { sc.Subscribers[39].DistReq = inf }, "subscriber[39].dist_req", inf, ErrNonFinite,
			"scenario: non-finite value: subscriber[39].dist_req = +Inf"},
		{"ss min_rx_power", func(sc *Scenario) { sc.Subscribers[0].MinRxPower = nan }, "subscriber[0].min_rx_power", nan, ErrNonFinite,
			"scenario: non-finite value: subscriber[0].min_rx_power = NaN"},
		{"bs pos x", func(sc *Scenario) { sc.BaseStations[1].Pos.X = inf }, "base_station[1].pos.x", inf, ErrNonFinite,
			"scenario: non-finite value: base_station[1].pos.x = +Inf"},
		{"bs pos y", func(sc *Scenario) { sc.BaseStations[1].Pos.Y = nan }, "base_station[1].pos.y", nan, ErrNonFinite,
			"scenario: non-finite value: base_station[1].pos.y = NaN"},
		// The first failing check wins: fields in order within an entity,
		// and entities in order.
		{"first field of an entity", func(sc *Scenario) {
			sc.Subscribers[5].DistReq = -1
			sc.Subscribers[5].Pos.Y = nan
		}, "subscriber[5].pos.y", nan, ErrNonFinite,
			"scenario: non-finite value: subscriber[5].pos.y = NaN"},
		{"first entity", func(sc *Scenario) {
			sc.Subscribers[7].Pos.X = nan
			sc.Subscribers[2].DistReq = -1
		}, "subscriber[2].dist_req", -1, ErrNonPositive,
			"scenario: non-positive value: subscriber[2].dist_req = -1"},
		{"scalars before entities", func(sc *Scenario) {
			sc.Subscribers[0].Pos.X = nan
			sc.NMax = 0
		}, "n_max", 0, ErrNonPositive,
			"scenario: non-positive value: n_max = 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := validateScenario(t)
			tc.mutate(sc)
			err := sc.Validate()
			var ve *ValueError
			if !errors.As(err, &ve) {
				t.Fatalf("err = %v (%T), want *ValueError", err, err)
			}
			if ve.Field != tc.field {
				t.Errorf("Field = %q, want %q", ve.Field, tc.field)
			}
			if math.Float64bits(ve.Value) != math.Float64bits(tc.value) {
				t.Errorf("Value = %v, want %v", ve.Value, tc.value)
			}
			if ve.Err != tc.is || !errors.Is(err, tc.is) {
				t.Errorf("err wraps %v, want %v", ve.Err, tc.is)
			}
			if err.Error() != tc.msg {
				t.Errorf("message %q, want %q", err.Error(), tc.msg)
			}
		})
	}
}

// TestDeltaValidateValueDetails pins the op details Delta.Validate takes
// from the same checks.
func TestDeltaValidateValueDetails(t *testing.T) {
	cases := []struct {
		op     DeltaOp
		detail string
	}{
		{DeltaOp{Op: OpAddSS, ID: 1, Pos: &geom.Point{X: math.NaN()}, DistReq: 10},
			"scenario: non-finite value: pos.x = NaN"},
		{DeltaOp{Op: OpMoveSS, ID: 1, Pos: &geom.Point{Y: math.Inf(-1)}},
			"scenario: non-finite value: pos.y = -Inf"},
		{DeltaOp{Op: OpAddSS, ID: 1, Pos: &geom.Point{}, DistReq: -3},
			"scenario: non-positive value: dist_req = -3"},
		{DeltaOp{Op: OpAddSS, ID: 1, Pos: &geom.Point{}, DistReq: 10, MinRxPower: math.Inf(1)},
			"scenario: non-finite value: min_rx_power = +Inf"},
		{DeltaOp{Op: OpTrafficSS, ID: 1, DistReq: math.NaN()},
			"scenario: non-finite value: dist_req = NaN"},
		{DeltaOp{Op: OpTrafficSS, ID: 1, MinRxPower: -2},
			"scenario: non-positive value: min_rx_power = -2"},
	}
	for _, tc := range cases {
		err := (&Delta{Version: DeltaVersion, Ops: []DeltaOp{tc.op}}).Validate()
		var de *DeltaError
		if !errors.As(err, &de) || !errors.Is(err, ErrBadDelta) {
			t.Fatalf("%+v: err = %v, want a *DeltaError wrapping ErrBadDelta", tc.op, err)
		}
		if de.Detail != tc.detail {
			t.Errorf("%+v: detail %q, want %q", tc.op, de.Detail, tc.detail)
		}
	}
}

// TestValidateAllocs bounds what Validate allocates on a valid scenario:
// the ID and position maps, never a formatted field name.
func TestValidateAllocs(t *testing.T) {
	sc := validateScenario(t)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("Validate of a valid 40-subscriber scenario allocates %v times, want at most 8", allocs)
	}
	t.Logf("%v allocations per Validate", allocs)
}
