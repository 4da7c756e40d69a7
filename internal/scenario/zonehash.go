package scenario

// Per-zone canonical sub-hashing. The zone partition (Alg. 2) decomposes the
// lower tier into independent subproblems, so a zone's solver inputs can be
// content-addressed independently of the rest of the field: two zones with
// identical geometry and demands — in the same or in *different* scenarios —
// hash identically and can share cached coverage solutions.
//
// The encoding follows the whole-scenario canonical form (hex floats,
// labeled fields, version tag) with two deliberate differences:
//
//   - Subscribers are written in zone-local order, not global order, and
//     WITHOUT their IDs or global indices. A zone that drifts to a new spot
//     in the subscriber list (because an unrelated subscriber was removed)
//     still hashes the same, which is exactly what makes zone-level reuse
//     effective under deltas.
//   - MinRxPower is left out. Coverage placement (SAMC/IAC/GAC) never reads
//     it, so a pure receive-power change leaves coverage caches warm.
//
// Globals that parameterize every zone solve (field, model, PMax, SNR
// threshold, NMax) are folded into each zone's bytes: they are tiny, and
// including them means a single zone hash is a complete content address
// with no side-channel.

// zoneCanonicalVersion tags the per-zone encoding; bump on any layout or
// field-set change so stale cache keys die instead of aliasing.
const zoneCanonicalVersion = "sagzone/1"

// CanonicalZoneBytes returns the canonical byte encoding of one zone's
// coverage inputs: positions and distance requirements, without MinRxPower
// or entity IDs. zone lists the member subscribers as indices into
// sc.Subscribers, in zone order (the order ZonePartition emits).
func (sc *Scenario) CanonicalZoneBytes(zone []int) []byte {
	var b canonicalBuf
	b.WriteString(zoneCanonicalVersion)
	b.WriteByte('\n')
	// "traffic 0" is kept from an encoding that also had a receive-power
	// variant, so that zone keys stay what they were.
	b.count("traffic", 0)
	b.field("field", sc.Field.Min.X, sc.Field.Min.Y, sc.Field.Max.X, sc.Field.Max.Y)
	b.field("model", sc.Model.Gt, sc.Model.Gr, sc.Model.Ht, sc.Model.Hr, sc.Model.Alpha, sc.Model.MinDist)
	b.field("pmax", sc.PMax)
	b.field("snrdb", sc.SNRThresholdDB)
	b.field("nmax", sc.NMax)
	b.count("ss", len(zone))
	for _, i := range zone {
		s := sc.Subscribers[i]
		b.field("s", s.Pos.X, s.Pos.Y, s.DistReq)
	}
	return b.Bytes()
}
