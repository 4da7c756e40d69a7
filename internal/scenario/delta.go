package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"sagrelay/internal/geom"
)

// Scenario deltas — the typed, versioned mutation format consumed by the
// incremental re-solve engine (internal/incr) and the /v1/resolve endpoint.
// A Delta is an ordered list of entity-level operations against a base
// scenario; Apply is pure (the base is never modified) and deterministic, so
// applying the same delta to the same base always yields byte-identical
// canonical encodings. That determinism is what lets an incremental solve be
// compared byte-for-byte against a cold solve of the mutated scenario.

// DeltaVersion tags the delta JSON format; bump it whenever the op set or
// field semantics change so stale clients fail loudly instead of silently
// misapplying mutations.
const DeltaVersion = "sagdelta/1"

// Delta op kinds. Entities are addressed by their stable ID, never by slice
// index: indices shift when entities are removed, IDs do not.
const (
	// OpAddSS appends a subscriber (id, pos, dist_req required;
	// min_rx_power derived from dist_req when omitted).
	OpAddSS = "add_ss"
	// OpRemoveSS removes the subscriber with the given id.
	OpRemoveSS = "remove_ss"
	// OpMoveSS repositions the subscriber with the given id.
	OpMoveSS = "move_ss"
	// OpTrafficSS changes a subscriber's demand: dist_req and/or
	// min_rx_power. When dist_req is given and min_rx_power is not, the
	// receive-power floor is re-derived from the new distance so the two
	// stay consistent (DeriveMinRxPower).
	OpTrafficSS = "traffic_ss"
	// OpAddBS appends a base station (id, pos required).
	OpAddBS = "add_bs"
	// OpRemoveBS removes the base station with the given id.
	OpRemoveBS = "remove_bs"
)

// ErrUnknownEntity reports a delta op addressing an ID that does not exist
// in the scenario it is applied to (or an add of an ID that already does).
var ErrUnknownEntity = errors.New("scenario: delta references unknown entity")

// ErrBadDelta reports a structurally invalid delta: wrong version, unknown
// op kind, or an op missing a required field.
var ErrBadDelta = errors.New("scenario: invalid delta")

// DeltaError pinpoints the failing op inside a delta. It wraps
// ErrUnknownEntity or ErrBadDelta so callers classify with errors.Is while
// the op index and kind name the offender for diagnostics.
type DeltaError struct {
	// Index is the position of the failing op in Delta.Ops.
	Index int
	// Op is the op kind ("move_ss", ...); empty when the delta itself is
	// malformed (bad version).
	Op string
	// ID is the entity ID the op addressed, when it has one.
	ID int
	// Err is the category sentinel: ErrUnknownEntity or ErrBadDelta.
	Err error
	// Detail is a human-readable elaboration.
	Detail string
}

func (e *DeltaError) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("%v: %s", e.Err, e.Detail)
	}
	return fmt.Sprintf("%v: op[%d] %s id=%d: %s", e.Err, e.Index, e.Op, e.ID, e.Detail)
}

// Unwrap exposes the category sentinel to errors.Is.
func (e *DeltaError) Unwrap() error { return e.Err }

// DeltaOp is one mutation. Which fields are read depends on Op; unread
// fields are ignored (and omitted from JSON).
type DeltaOp struct {
	// Op is the op kind: one of the Op* constants.
	Op string `json:"op"`
	// ID addresses the target entity (required by every op).
	ID int `json:"id"`
	// Pos is the new/initial position (add_ss, move_ss, add_bs).
	Pos *geom.Point `json:"pos,omitempty"`
	// DistReq is the new/initial distance requirement (add_ss, traffic_ss).
	// Zero means "not given" for traffic_ss.
	DistReq float64 `json:"dist_req,omitempty"`
	// MinRxPower is the new/initial receive-power floor (add_ss,
	// traffic_ss). Zero means "derive from DistReq".
	MinRxPower float64 `json:"min_rx_power,omitempty"`
}

// Delta is a versioned, ordered list of mutations to a base scenario.
type Delta struct {
	Version string    `json:"version"`
	Ops     []DeltaOp `json:"ops"`
}

// Validate checks the delta's version tag and each op's structural
// requirements (known kind, required fields present and finite). It does
// not check entity existence — that depends on the base scenario and is
// Apply's job.
func (d *Delta) Validate() error {
	if d.Version != DeltaVersion {
		return &DeltaError{Err: ErrBadDelta, Detail: fmt.Sprintf("version %q, want %q", d.Version, DeltaVersion)}
	}
	for i, op := range d.Ops {
		bad := func(detail string) error {
			return &DeltaError{Index: i, Op: op.Op, ID: op.ID, Err: ErrBadDelta, Detail: detail}
		}
		needPos := func() error {
			if op.Pos == nil {
				return bad("missing pos")
			}
			if err := firstInvalid("", 0, check{"pos.x", op.Pos.X, false}, check{"pos.y", op.Pos.Y, false}); err != nil {
				return bad(err.Error())
			}
			return nil
		}
		switch op.Op {
		case OpAddSS:
			if err := needPos(); err != nil {
				return err
			}
			if err := firstInvalid("", 0, check{"dist_req", op.DistReq, true}, check{"min_rx_power", op.MinRxPower, false}); err != nil {
				return bad(err.Error())
			}
			if op.MinRxPower < 0 {
				return bad("negative min_rx_power")
			}
		case OpMoveSS, OpAddBS:
			if err := needPos(); err != nil {
				return err
			}
		case OpTrafficSS:
			if op.DistReq == 0 && op.MinRxPower == 0 {
				return bad("traffic_ss needs dist_req and/or min_rx_power")
			}
			if op.DistReq != 0 {
				if err := firstInvalid("", 0, check{"dist_req", op.DistReq, true}); err != nil {
					return bad(err.Error())
				}
			}
			if op.MinRxPower != 0 {
				if err := firstInvalid("", 0, check{"min_rx_power", op.MinRxPower, true}); err != nil {
					return bad(err.Error())
				}
			}
		case OpRemoveSS, OpRemoveBS:
			// ID alone suffices.
		default:
			return bad("unknown op")
		}
	}
	return nil
}

// Apply returns a new scenario with the delta's ops applied in order to a
// deep copy of base; base is never modified. The result is validated, so a
// delta that produces a degenerate instance (coincident entities, empty
// subscriber set) fails here with the scenario's own typed errors. An op
// addressing a missing ID — or adding an ID that already exists — fails
// with a *DeltaError wrapping ErrUnknownEntity.
func (d *Delta) Apply(base *Scenario) (*Scenario, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	sc := base.clone()
	for i, op := range d.Ops {
		missing := func(detail string) error {
			return &DeltaError{Index: i, Op: op.Op, ID: op.ID, Err: ErrUnknownEntity, Detail: detail}
		}
		switch op.Op {
		case OpAddSS:
			if sc.findSS(op.ID) >= 0 {
				return nil, missing("subscriber id already exists")
			}
			mrp := op.MinRxPower
			if mrp == 0 {
				mrp = sc.DeriveMinRxPower(op.DistReq)
			}
			sc.Subscribers = append(sc.Subscribers, Subscriber{
				ID: op.ID, Pos: *op.Pos, DistReq: op.DistReq, MinRxPower: mrp,
			})
		case OpRemoveSS:
			j := sc.findSS(op.ID)
			if j < 0 {
				return nil, missing("no such subscriber")
			}
			sc.Subscribers = append(sc.Subscribers[:j], sc.Subscribers[j+1:]...)
		case OpMoveSS:
			j := sc.findSS(op.ID)
			if j < 0 {
				return nil, missing("no such subscriber")
			}
			sc.Subscribers[j].Pos = *op.Pos
		case OpTrafficSS:
			j := sc.findSS(op.ID)
			if j < 0 {
				return nil, missing("no such subscriber")
			}
			if op.DistReq != 0 {
				sc.Subscribers[j].DistReq = op.DistReq
				if op.MinRxPower == 0 {
					sc.Subscribers[j].MinRxPower = sc.DeriveMinRxPower(op.DistReq)
				}
			}
			if op.MinRxPower != 0 {
				sc.Subscribers[j].MinRxPower = op.MinRxPower
			}
		case OpAddBS:
			if sc.findBS(op.ID) >= 0 {
				return nil, missing("base station id already exists")
			}
			sc.BaseStations = append(sc.BaseStations, BaseStation{ID: op.ID, Pos: *op.Pos})
		case OpRemoveBS:
			j := sc.findBS(op.ID)
			if j < 0 {
				return nil, missing("no such base station")
			}
			sc.BaseStations = append(sc.BaseStations[:j], sc.BaseStations[j+1:]...)
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// clone deep-copies the scenario (the entity slices are the only
// reference-typed fields).
func (sc *Scenario) clone() *Scenario {
	out := *sc
	out.Subscribers = append([]Subscriber(nil), sc.Subscribers...)
	out.BaseStations = append([]BaseStation(nil), sc.BaseStations...)
	return &out
}

// findSS returns the index of the subscriber with the given id, or -1.
func (sc *Scenario) findSS(id int) int {
	for i, s := range sc.Subscribers {
		if s.ID == id {
			return i
		}
	}
	return -1
}

// findBS returns the index of the base station with the given id, or -1.
func (sc *Scenario) findBS(id int) int {
	for i, b := range sc.BaseStations {
		if b.ID == id {
			return i
		}
	}
	return -1
}

// ParseDelta decodes and validates a delta document.
func ParseDelta(data []byte) (*Delta, error) {
	var d Delta
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("scenario: parse delta: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// LoadDelta reads and validates a delta document from a file.
func LoadDelta(path string) (*Delta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: load delta: %w", err)
	}
	return ParseDelta(data)
}
