package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"sagrelay/internal/obs"
)

// flightDetail is the Detail document of a job's flight record: everything
// a postmortem wants that the record header does not carry — the full span
// tree, the final progress snapshot and the convergence curve.
type flightDetail struct {
	Schema   string          `json:"schema"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Degraded bool            `json:"degraded,omitempty"`
	Trace    *obs.SpanDoc    `json:"trace,omitempty"`
	Progress *progressDoc    `json:"progress,omitempty"`
	Curve    []progressPoint `json:"curve,omitempty"`
}

// recordFlight retains a finished job in the flight ring. outcome is the
// record's headline ("done", "degraded", "failed", "cancelled",
// "cache_hit"); bad routes it into the preferentially-retained half.
func (s *Server) recordFlight(job *Job, outcome string, bad, degraded bool) {
	if s.flight == nil {
		return
	}
	errMsg, cacheHit, created, started, finished, trace := job.flightInfo()
	if finished.IsZero() {
		finished = time.Now()
	}
	queueEnd := started
	if queueEnd.IsZero() {
		queueEnd = finished
	}
	detail := flightDetail{
		Schema:   "sagflightdetail/1",
		CacheHit: cacheHit,
		Degraded: degraded,
		Trace:    trace,
	}
	if p := job.progressState(); p != nil {
		doc := p.snapshot(job)
		detail.Progress = &doc
		detail.Curve = p.curvePoints()
	}
	detailBytes, err := json.Marshal(detail)
	if err != nil {
		detailBytes = nil
	}
	kind := "solve"
	if job.incr != nil {
		kind = "resolve"
	}
	s.flight.Record(obs.FlightRecord{
		ID:      job.ID,
		Kind:    kind,
		Outcome: outcome,
		Client:  job.client,
		Error:   errMsg,
		Start:   created,
		End:     finished,
		QueueMS: float64(queueEnd.Sub(created).Microseconds()) / 1000,
		WallMS:  float64(finished.Sub(created).Microseconds()) / 1000,
		Bad:     bad,
		Detail:  json.RawMessage(detailBytes),
	})
}

// FlightRecorder exposes the server's flight ring (for the SIGQUIT dump,
// the recovery self-test and tests).
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flight }

// FlightHandler serves GET /debug/flight and /debug/flight/{id}; mount it
// on the pprof side listener, away from the API port.
func (s *Server) FlightHandler() http.Handler {
	return s.flight.Handler("/debug/flight")
}
