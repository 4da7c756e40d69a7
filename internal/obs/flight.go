package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// FlightRecord is the retained postmortem evidence for one completed unit
// of work (a solve job): identity, outcome, timings, and an opaque Detail
// document the recording layer fills with whatever it wants preserved
// (trace doc, progress curve). Records are immutable once recorded.
type FlightRecord struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"`
	Outcome string    `json:"outcome"`
	Client  string    `json:"client,omitempty"`
	Error   string    `json:"error,omitempty"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	QueueMS float64   `json:"queue_ms"`
	WallMS  float64   `json:"wall_ms"`
	// Bad marks records worth keeping longer: failures, cancellations,
	// degraded answers. Bad records live in their own ring half, so
	// a burst of healthy traffic can never evict the evidence of the last
	// incident.
	Bad bool `json:"bad"`
	// Detail is a pre-marshaled JSON document; its schema belongs to the
	// recording layer.
	Detail json.RawMessage `json:"detail,omitempty"`

	seq uint64
}

// recRing is a fixed-capacity overwrite-oldest record buffer.
type recRing struct {
	buf   []FlightRecord
	next  int
	count int
}

func (r *recRing) add(rec FlightRecord) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

func (r *recRing) appendAll(out []FlightRecord) []FlightRecord {
	for i := 0; i < r.count; i++ {
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// FlightRecorder retains the last K completed-work records in memory, like
// an aircraft flight recorder: always on, bounded, and biased toward
// keeping the interesting half. Capacity is split evenly between a ring of
// ordinary records and a ring of Bad ones, so each class only evicts its
// own kind. Safe for concurrent use. The recorder is deliberately
// process-local and volatile — durability belongs to the journal, and a
// crash that loses the ring loses observability only.
type FlightRecorder struct {
	mu   sync.Mutex
	good recRing
	bad  recRing
	seq  uint64
}

// DefaultFlightRecords is the default total ring capacity.
const DefaultFlightRecords = 256

// NewFlightRecorder returns a recorder retaining up to capacity records
// (<=0 selects DefaultFlightRecords). Half the capacity is reserved for
// Bad records.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRecords
	}
	badCap := capacity / 2
	if badCap == 0 {
		badCap = 1
	}
	goodCap := capacity - badCap
	if goodCap == 0 {
		goodCap = 1
	}
	return &FlightRecorder{
		good: recRing{buf: make([]FlightRecord, goodCap)},
		bad:  recRing{buf: make([]FlightRecord, badCap)},
	}
}

// Record retains rec, evicting the oldest record of the same class (Bad or
// not) once that class's ring is full.
func (f *FlightRecorder) Record(rec FlightRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	rec.seq = f.seq
	if rec.Bad {
		f.bad.add(rec)
	} else {
		f.good.add(rec)
	}
}

// Records returns every retained record, newest first.
func (f *FlightRecorder) Records() []FlightRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightRecord, 0, f.good.count+f.bad.count)
	out = f.good.appendAll(out)
	out = f.bad.appendAll(out)
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	return out
}

// Get returns the retained record with the given ID.
func (f *FlightRecorder) Get(id string) (FlightRecord, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ring := range [2]*recRing{&f.bad, &f.good} {
		for i := 0; i < ring.count; i++ {
			idx := (ring.next - 1 - i + len(ring.buf)) % len(ring.buf)
			if ring.buf[idx].ID == id {
				return ring.buf[idx], true
			}
		}
	}
	return FlightRecord{}, false
}

// Len returns the number of retained records.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.good.count + f.bad.count
}

// flightIndex is the JSON shape of the record listing: summaries only, so
// the index stays small even when Detail documents are large.
type flightIndex struct {
	Schema  string          `json:"schema"`
	Count   int             `json:"count"`
	Records []flightSummary `json:"records"`
}

type flightSummary struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"`
	Outcome string    `json:"outcome"`
	Bad     bool      `json:"bad"`
	Client  string    `json:"client,omitempty"`
	Error   string    `json:"error,omitempty"`
	End     time.Time `json:"end"`
	WallMS  float64   `json:"wall_ms"`
}

// Handler serves the recorder over HTTP: GET <prefix> lists record
// summaries (newest first) and GET <prefix>/{id} returns one full record
// including its Detail document. Mount it at prefix on a debug listener:
//
//	mux.Handle("/debug/flight", rec.Handler("/debug/flight"))
//	mux.Handle("/debug/flight/", rec.Handler("/debug/flight"))
func (f *FlightRecorder) Handler(prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, prefix)
		rest = strings.Trim(rest, "/")
		w.Header().Set("Content-Type", "application/json")
		if rest == "" {
			recs := f.Records()
			idx := flightIndex{Schema: "sagflight/1", Count: len(recs)}
			idx.Records = make([]flightSummary, len(recs))
			for i, rec := range recs {
				idx.Records[i] = flightSummary{
					ID: rec.ID, Kind: rec.Kind, Outcome: rec.Outcome,
					Bad: rec.Bad, Client: rec.Client, Error: rec.Error,
					End: rec.End, WallMS: rec.WallMS,
				}
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(idx)
			return
		}
		rec, ok := f.Get(rest)
		if !ok {
			http.Error(w, "no flight record: "+rest, http.StatusNotFound)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rec)
	})
}

// Dump writes every retained record as indented JSON, newest first; wired
// to SIGQUIT in sagserved so an operator can extract the ring from a
// wedged process without HTTP.
func (f *FlightRecorder) Dump() []byte {
	recs := f.Records()
	b, err := json.MarshalIndent(struct {
		Schema  string         `json:"schema"`
		Count   int            `json:"count"`
		Records []FlightRecord `json:"records"`
	}{Schema: "sagflight/1", Count: len(recs), Records: recs}, "", "  ")
	if err != nil {
		return []byte("{}")
	}
	return b
}
