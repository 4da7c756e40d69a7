package lower

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"sagrelay/internal/scenario"
)

// Zone-level content-addressed caching. The zone partition makes zones
// independent subproblems, so a zone's coverage solution is a pure function
// of (zone inputs, solver method, determinism-relevant options). Keys are
// SHA-256 content addresses built from scenario.CanonicalZoneBytes plus a
// canonical options encoding, so identical zones reuse solutions across
// deltas of one scenario and across unrelated jobs alike.
//
// What is deliberately NOT in the keys:
//
//   - TimeLimit: wall-clock truncation is load-dependent; truncated entries
//     are never cached (see ZoneEntry.Truncated), and every non-truncated
//     result is deterministic regardless of the time budget.
//   - Workers: worker count never changes any result (zone results are
//     assembled in zone order).
//   - MaxZoneSS: it decides which zones exist, not how a given zone solves;
//     the zone membership is already the key's content.
//   - Subscriber IDs and global indices: covers are stored zone-local so an
//     entry survives the zone drifting through the subscriber list.

// ZoneEntry is one cached zone-level coverage solution. Covers in Relays
// are ZONE-LOCAL subscriber indices (positions within the zone slice), so
// the entry is position-independent; callers remap to global indices on
// reuse. Entries are shared between jobs and must be treated as immutable.
type ZoneEntry struct {
	Relays []Relay
	// Truncated marks a wall-clock-truncated (load-dependent) solve.
	// Compliant caches must refuse to store truncated entries; the flag
	// exists so the solver can hand every outcome to Put and let the cache
	// keep its counters accurate.
	Truncated bool
}

// ZoneCache is consulted by the coverage solvers once per zone. Get's error
// aborts the zone solve (it carries injected faults and I/O failures, not
// misses); a miss is (nil, false, nil). The solvers call Put for every zone
// they solved themselves, including truncated ones — storage policy
// (refusing truncated entries, eviction) belongs to the implementation.
type ZoneCache interface {
	Get(key string) (*ZoneEntry, bool, error)
	Put(key string, e *ZoneEntry)
}

// keyBuf builds canonical key bytes: labeled fields, exact hex floats.
type keyBuf struct{ bytes.Buffer }

func (b *keyBuf) field(label string, vals ...float64) {
	b.WriteString(label)
	for _, v := range vals {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
	}
	b.WriteByte('\n')
}

func (b *keyBuf) count(label string, n int) {
	b.WriteString(label)
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(n))
	b.WriteByte('\n')
}

func (b *keyBuf) hash() string {
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// ilpZoneKey content-addresses one zone's ILPQC solve: method, the
// determinism-relevant options, and the zone bytes.
func ilpZoneKey(sc *scenario.Scenario, zone []int, method string, opts ILPOptions) string {
	var b keyBuf
	b.WriteString("sagzonekey/ilp/1\n")
	b.WriteString(method)
	b.WriteByte('\n')
	b.field("grid", opts.GridSize)
	b.count("maxnodes", opts.MaxNodes)
	b.Write(sc.CanonicalZoneBytes(zone))
	return b.hash()
}

// samcZoneKey content-addresses one zone's SAMC solve.
func samcZoneKey(sc *scenario.Scenario, zone []int, opts SAMCOptions) string {
	var b keyBuf
	b.WriteString("sagzonekey/samc/1\n")
	if opts.Hitting.LocalSearch {
		b.count("localsearch", 1)
	}
	b.count("maxswap", opts.Hitting.MaxSwap)
	b.count("maxrounds", opts.Hitting.MaxRounds)
	if opts.SkipSliding {
		b.count("skipsliding", 1)
	}
	b.Write(sc.CanonicalZoneBytes(zone))
	return b.hash()
}

// localizeRelays rewrites Covers from global subscriber indices to
// zone-local ones for storage. ok=false when a cover is not a zone member
// (the entry must then not be cached).
func localizeRelays(relays []Relay, zone []int) ([]Relay, bool) {
	idx := make(map[int]int, len(zone))
	for li, g := range zone {
		idx[g] = li
	}
	out := make([]Relay, len(relays))
	for i, r := range relays {
		covers := make([]int, len(r.Covers))
		for k, g := range r.Covers {
			li, ok := idx[g]
			if !ok {
				return nil, false
			}
			covers[k] = li
		}
		out[i] = Relay{Pos: r.Pos, Covers: covers}
	}
	return out, true
}

// globalizeRelays rewrites a cached entry's zone-local Covers to the
// current zone's global subscriber indices, allocating fresh slices so the
// shared entry stays immutable. ok=false on an out-of-range cover
// (corrupt or mismatched entry; the caller must solve instead).
func globalizeRelays(relays []Relay, zone []int) ([]Relay, bool) {
	out := make([]Relay, len(relays))
	for i, r := range relays {
		covers := make([]int, len(r.Covers))
		for k, li := range r.Covers {
			if li < 0 || li >= len(zone) {
				return nil, false
			}
			covers[k] = zone[li]
		}
		out[i] = Relay{Pos: r.Pos, Covers: covers}
	}
	return out, true
}
