package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	"sagrelay/internal/obs"
)

// Handler returns the service's HTTP routes on a fresh mux:
//
//	POST   /v1/solve             submit {scenario, options}; ?wait=1 blocks
//	POST   /v1/resolve           submit {base_job|base_scenario_hash, delta,
//	                             options}; incremental re-solve, ?wait=1 blocks
//	POST   /v1/batch             submit {items|grid, options}; ?wait=1 streams
//	                             per-item results as NDJSON as they complete
//	GET    /v1/batch/{id}        one batch's per-item status
//	GET    /v1/batch/{id}/results NDJSON of finished item results; ?wait=1
//	                             streams the rest as they complete
//	DELETE /v1/batch/{id}        cancel every unfinished item
//	GET    /v1/jobs              list retained jobs, newest first
//	GET    /v1/jobs/{id}         one job's status
//	GET    /v1/jobs/{id}/result  the finished result document
//	GET    /v1/jobs/{id}/progress live convergence snapshot (per-zone B&B
//	                             gap/phase rows); ?stream=1 tails NDJSON
//	                             snapshots until the job finishes
//	DELETE /v1/jobs/{id}         request cancellation
//	GET    /healthz              liveness probe
//	GET    /metrics              counters (JSON; ?format=prometheus for
//	                             text exposition with histograms)
//
// Every non-2xx JSON answer is the unified error envelope
// {"error":{"code","message","retry_after_s","details"}} (see apierror.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/resolve", s.handleResolve)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/batch/{id}", s.handleBatchStatus)
	mux.HandleFunc("GET /v1/batch/{id}/results", s.handleBatchResults)
	mux.HandleFunc("DELETE /v1/batch/{id}", s.handleBatchCancel)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeRawResult serves pre-marshaled result bytes untouched, preserving
// the byte-identical replay guarantee of the cache.
func writeRawResult(w http.ResponseWriter, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(doc)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(&req); err != nil {
		s.writeAPIError(w, err)
		return
	}
	job, err := s.submit(clientKey(r), req)
	if err != nil {
		s.writeAPIError(w, err)
		return
	}
	s.answerSubmit(w, r, job)
}

// handleResolve is handleSolve's incremental twin: the request names a base
// scenario plus a delta, and a missing base is a 404 rather than a 400.
func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	var req ResolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(&req); err != nil {
		s.writeAPIError(w, err)
		return
	}
	job, err := s.resolve(clientKey(r), req)
	if err != nil {
		s.writeAPIError(w, err)
		return
	}
	s.answerSubmit(w, r, job)
}

// clientKey identifies the submitting client for rate limiting: the
// X-API-Key header when present, else the remote address with its ephemeral
// port stripped (so one host is one bucket across connections).
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	if host == "" {
		return ""
	}
	return "addr:" + host
}

// answerSubmit finishes a successful submission: 202 with the job status
// once its submit record is durable, or — with ?wait=1 — block until the
// job finishes and serve its result. The job finishes only after its
// terminal record is durable, and that fsync covers the submit record
// written before it, so a waited answer costs no separate submit fsync. A
// client disconnect while waiting cancels the solve — the whole point of
// the context plumbing — and the handler just unwinds.
func (s *Server) answerSubmit(w http.ResponseWriter, r *http.Request, job *Job) {
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-job.done:
		case <-r.Context().Done():
			job.cancelNow()
			<-job.done
			return
		}
		if doc, state := job.resultBytes(); state == StateDone {
			writeRawResult(w, doc)
			return
		}
		s.writeUnprocessable(w, job)
		return
	}
	s.durable(job, nil)
	writeJSON(w, http.StatusAccepted, job.status())
}

// writeUnprocessable answers a result fetch for a job that finished without
// a result document (failed or cancelled): the unified envelope, with the
// job's terminal status under details.
func (s *Server) writeUnprocessable(w http.ResponseWriter, job *Job) {
	st := job.status()
	msg := st.Error
	if msg == "" {
		msg = "job finished without a result document"
	}
	s.writeAPIErrorBody(w, http.StatusUnprocessableEntity, APIError{
		Code:    CodeUnprocessable,
		Message: msg,
		Details: map[string]any{"job": st},
	})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]jobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobStatus `json:"jobs"`
	}{out})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.writeNotFound(w, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.writeNotFound(w, "no such job")
		return
	}
	doc, state := job.resultBytes()
	switch state {
	case StateDone:
		writeRawResult(w, doc)
	case StateQueued, StateRunning:
		// 202: try again later.
		writeJSON(w, http.StatusAccepted, job.status())
	default:
		s.writeUnprocessable(w, job)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	// Use the job Cancel returns: a concurrent Submit may evict the table
	// entry between the cancel and a re-lookup, and the status must come
	// from the job that was actually cancelled.
	job, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		s.writeNotFound(w, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "shutting down"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, metricsDoc{s.series})
	case "prometheus":
		// Two registries, one exposition: the per-server counters first,
		// then the process-wide solver histograms (zone solve time, B&B
		// nodes, LP pivots, job latency, queue wait).
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.series.WritePrometheus(w)
		_ = obs.Default.WritePrometheus(w)
	default:
		s.writeAPIErrorBody(w, http.StatusBadRequest, APIError{
			Code:    CodeBadRequest,
			Message: fmt.Sprintf("unknown metrics format %q", format),
		})
	}
}

// writeNotFound answers a lookup miss (job, batch) with the unified envelope.
func (s *Server) writeNotFound(w http.ResponseWriter, msg string) {
	s.writeAPIErrorBody(w, http.StatusNotFound, APIError{Code: CodeNotFound, Message: msg})
}
