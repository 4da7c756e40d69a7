// Package scenario models the wireless relay network instances of the
// paper: static subscriber stations (SS) with distance (capacity) and SNR
// requirements, base stations (BS), the playing field, and the radio model.
// It also provides the seeded uniform generator used by the evaluation
// (Section IV-A) and JSON serialization for the CLI tools.
package scenario

import (
	"errors"
	"fmt"
	"math"

	"sagrelay/internal/geom"
	"sagrelay/internal/radio"
)

// ErrNonFinite reports a NaN or ±Inf where a finite number is required.
// NaN coordinates poison every geometric predicate downstream (distance
// comparisons silently evaluate false), so they are rejected at the edge.
var ErrNonFinite = errors.New("scenario: non-finite value")

// ErrNonPositive reports a zero or negative value where a strictly
// positive one is required (field extents, distance requirements, power
// caps).
var ErrNonPositive = errors.New("scenario: non-positive value")

// ErrCoincident reports two same-type entities at the exact same position.
// Coincident subscribers create zero-area feasible-circle intersections and
// duplicate rows in the coverage formulations; coincident base stations make
// nearest-BS attachment ambiguous. Both are degenerate inputs, so they are
// rejected at the edge with a typed error instead of ill-conditioning the
// geometry downstream.
var ErrCoincident = errors.New("scenario: coincident entities")

// CoincidentError identifies the colliding pair. It wraps ErrCoincident so
// errors.Is classifies the failure while Kind and the two IDs name the
// offenders for diagnostics.
type CoincidentError struct {
	// Kind is "subscriber" or "base_station".
	Kind string
	// ID1, ID2 are the IDs of the colliding entities (ID1 appears first).
	ID1, ID2 int
}

func (e *CoincidentError) Error() string {
	return fmt.Sprintf("%v: %ss %d and %d share a position", ErrCoincident, e.Kind, e.ID1, e.ID2)
}

// Unwrap exposes the category sentinel to errors.Is.
func (e *CoincidentError) Unwrap() error { return ErrCoincident }

// ValueError pinpoints an invalid numeric field in a scenario document. It
// wraps ErrNonFinite or ErrNonPositive, so errors.Is classifies the
// failure while the Field path names the offending entry for diagnostics.
type ValueError struct {
	// Field is the path of the offending field, e.g. "subscriber[3].pos.x".
	Field string
	// Value is the rejected number.
	Value float64
	// Err is the category sentinel: ErrNonFinite or ErrNonPositive.
	Err error
}

func (e *ValueError) Error() string {
	return fmt.Sprintf("%v: %s = %v", e.Err, e.Field, e.Value)
}

// Unwrap exposes the category sentinel to errors.Is.
func (e *ValueError) Unwrap() error { return e.Err }

// check is one numeric field to test: finite always, and strictly
// positive when pos is set.
type check struct {
	name string
	v    float64
	pos  bool
}

// firstInvalid returns a *ValueError for the first failing check, or nil.
// With kind non-empty the field path is kind[i].name. The path is built
// only once a check has failed, so a valid scenario formats nothing.
func firstInvalid(kind string, i int, checks ...check) error {
	for _, c := range checks {
		var err error
		switch {
		case math.IsNaN(c.v) || math.IsInf(c.v, 0):
			err = ErrNonFinite
		case c.pos && c.v <= 0:
			err = ErrNonPositive
		default:
			continue
		}
		field := c.name
		if kind != "" {
			field = fmt.Sprintf("%s[%d].%s", kind, i, c.name)
		}
		return &ValueError{Field: field, Value: c.v, Err: err}
	}
	return nil
}

// Subscriber is a static subscriber station (SS): a fixed user with a large
// traffic demand (the paper's examples: retail stores, gas stations). Its
// data-rate request has already been transformed into a distance requirement
// DistReq = d_i per Section II-A; MinRxPower is P_ss^i, the minimum received
// power that sustains the requested rate.
type Subscriber struct {
	ID  int        `json:"id"`
	Pos geom.Point `json:"pos"`
	// DistReq is the feasible coverage distance d_i: a relay provides enough
	// access-link capacity iff it is within DistReq of the subscriber.
	DistReq float64 `json:"dist_req"`
	// MinRxPower is P_ss^i, the minimum received power (linear units)
	// required to sustain the subscriber's data rate.
	MinRxPower float64 `json:"min_rx_power"`
}

// Circle returns the subscriber's feasible coverage circle c_i.
func (s Subscriber) Circle() geom.Circle { return geom.C(s.Pos, s.DistReq) }

// BaseStation is a macro base station; upper-tier relay trees terminate at
// base stations.
type BaseStation struct {
	ID  int        `json:"id"`
	Pos geom.Point `json:"pos"`
}

// Tier identifies which tier a placed relay serves.
type Tier int

// Relay tiers. (Enums start at 1 so the zero value is invalid.)
const (
	// TierCoverage relays cover subscribers on the lower tier.
	TierCoverage Tier = iota + 1
	// TierConnectivity relays forward traffic between coverage relays and
	// base stations on the upper tier.
	TierConnectivity
)

// String renders the tier.
func (t Tier) String() string {
	switch t {
	case TierCoverage:
		return "coverage"
	case TierConnectivity:
		return "connectivity"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Relay is a placed relay station with its allocated transmit power.
type Relay struct {
	ID    int        `json:"id"`
	Pos   geom.Point `json:"pos"`
	Power float64    `json:"power"`
	Tier  Tier       `json:"tier"`
}

// Scenario is a full problem instance for the SAG problem (Definition 3).
type Scenario struct {
	// Field is the playing field; stations are placed inside it.
	Field geom.Rect `json:"field"`
	// Subscribers are the SSs to cover.
	Subscribers []Subscriber `json:"subscribers"`
	// BaseStations are the BSs terminating upper-tier trees.
	BaseStations []BaseStation `json:"base_stations"`
	// Model is the two-ray propagation model.
	Model radio.Model `json:"model"`
	// PMax is the maximum relay transmission power (Definition 3 allocates
	// powers in [0, PMax]).
	PMax float64 `json:"p_max"`
	// SNRThresholdDB is beta in dB; every subscriber shares the same
	// threshold (Section II-A assumption).
	SNRThresholdDB float64 `json:"snr_threshold_db"`
	// NMax is the maximum ignorable noise for Zone Partition (Alg. 2).
	NMax float64 `json:"n_max"`
}

// Beta returns the linear SNR threshold.
func (sc *Scenario) Beta() float64 { return radio.DBToLinear(sc.SNRThresholdDB) }

// NumSS returns the number of subscribers.
func (sc *Scenario) NumSS() int { return len(sc.Subscribers) }

// FeasibleCircles returns every subscriber's feasible coverage circle, in
// subscriber order.
func (sc *Scenario) FeasibleCircles() []geom.Circle {
	cs := make([]geom.Circle, len(sc.Subscribers))
	for i, s := range sc.Subscribers {
		cs[i] = s.Circle()
	}
	return cs
}

// Validate checks structural invariants of the instance: positive power
// caps and field extents, finite coordinates everywhere, positive distance
// requirements, unique IDs, and no two same-type entities at the same
// position (*CoincidentError wrapping ErrCoincident). Numeric failures are
// *ValueError values
// wrapping ErrNonFinite / ErrNonPositive, so loaders can classify bad
// input without string matching; NaN and Inf are rejected here rather than
// being allowed to flow into geometry and the LP, where they would corrupt
// results silently (every comparison against NaN is false).
func (sc *Scenario) Validate() error {
	if err := sc.Model.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := firstInvalid("", 0,
		check{"field.min.x", sc.Field.Min.X, false},
		check{"field.min.y", sc.Field.Min.Y, false},
		check{"field.max.x", sc.Field.Max.X, false},
		check{"field.max.y", sc.Field.Max.Y, false},
		check{"field.width", sc.Field.Width(), true},
		check{"field.height", sc.Field.Height(), true},
		check{"p_max", sc.PMax, true},
		check{"n_max", sc.NMax, true},
		check{"snr_threshold_db", sc.SNRThresholdDB, false},
	); err != nil {
		return err
	}
	if len(sc.Subscribers) == 0 {
		return errors.New("scenario: no subscribers")
	}
	if len(sc.BaseStations) == 0 {
		return errors.New("scenario: no base stations")
	}
	seen := make(map[int]bool, len(sc.Subscribers))
	atPos := make(map[geom.Point]int, len(sc.Subscribers))
	for i, s := range sc.Subscribers {
		if err := firstInvalid("subscriber", i,
			check{"pos.x", s.Pos.X, false},
			check{"pos.y", s.Pos.Y, false},
			check{"dist_req", s.DistReq, true},
			check{"min_rx_power", s.MinRxPower, false},
		); err != nil {
			return err
		}
		if s.MinRxPower < 0 {
			return fmt.Errorf("scenario: subscriber %d has negative MinRxPower %v", s.ID, s.MinRxPower)
		}
		if seen[s.ID] {
			return fmt.Errorf("scenario: duplicate subscriber id %d", s.ID)
		}
		seen[s.ID] = true
		if j, dup := atPos[s.Pos]; dup {
			return &CoincidentError{Kind: "subscriber", ID1: sc.Subscribers[j].ID, ID2: s.ID}
		}
		atPos[s.Pos] = i
	}
	seenBS := make(map[int]bool, len(sc.BaseStations))
	atPosBS := make(map[geom.Point]int, len(sc.BaseStations))
	for i, b := range sc.BaseStations {
		if err := firstInvalid("base_station", i,
			check{"pos.x", b.Pos.X, false},
			check{"pos.y", b.Pos.Y, false},
		); err != nil {
			return err
		}
		if seenBS[b.ID] {
			return fmt.Errorf("scenario: duplicate base station id %d", b.ID)
		}
		seenBS[b.ID] = true
		if j, dup := atPosBS[b.Pos]; dup {
			return &CoincidentError{Kind: "base_station", ID1: sc.BaseStations[j].ID, ID2: b.ID}
		}
		atPosBS[b.Pos] = i
	}
	return nil
}

// MaxNoiseDistance returns dmax of Zone Partition: the distance beyond which
// a PMax transmitter's contribution is at most NMax (Alg. 2, Step 1).
func (sc *Scenario) MaxNoiseDistance() (float64, error) {
	d, err := sc.Model.IgnorableNoiseDistance(sc.PMax, sc.NMax)
	if err != nil {
		return 0, fmt.Errorf("scenario: %w", err)
	}
	return d, nil
}

// DeriveMinRxPower returns the P_ss value consistent with a distance
// requirement d: the power received at distance exactly d from a PMax
// transmitter. Using it makes "within distance d at max power" and
// "received power >= P_ss" the same condition, which is how the paper's
// capacity-to-distance transformation is defined.
func (sc *Scenario) DeriveMinRxPower(d float64) float64 {
	return sc.Model.ReceivedPower(sc.PMax, d)
}
