package serve

import (
	"errors"
	"math"
	"net/http"
	"strconv"

	"sagrelay/internal/admit"
	"sagrelay/internal/scenario"
)

// Error codes of the unified API error envelope. Every non-2xx JSON answer
// from the service carries exactly one of these in error.code, so clients
// branch on a stable machine-readable token instead of parsing messages or
// mapping status codes themselves (two codes can share a status:
// rate_limited and queue_full are both 429). The README's error-code table
// documents each.
const (
	CodeBadRequest    = "bad_request"   // 400: malformed JSON, invalid scenario or options
	CodeBadDelta      = "bad_delta"     // 400: malformed delta or unknown entity in /v1/resolve
	CodeBatchLimit    = "batch_limit"   // 400: batch expands past the server's item bound
	CodeNotFound      = "not_found"     // 404: unknown job, batch, or resolve base
	CodeRateLimited   = "rate_limited"  // 429: per-client token bucket exhausted
	CodeQueueFull     = "queue_full"    // 429: job queue backpressure
	CodeShuttingDown  = "shutting_down" // 503: graceful shutdown in progress
	CodeUnprocessable = "unprocessable" // 422: job finished without a result document

	// Batch stream-only codes: these appear inline on per-item NDJSON lines
	// and batch status entries, never as an HTTP status.
	CodeSolveFailed = "solve_failed" // batch item's solve ended in an error
	CodeCancelled   = "cancelled"    // batch item cancelled (deadline, client, shutdown)
)

// APIError is the typed error body: the envelope every HTTP error response
// nests under its "error" key, and the shape batch NDJSON streams embed
// inline for per-item failures.
type APIError struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable error text.
	Message string `json:"message"`
	// RetryAfterS suggests, in seconds, when a retry could succeed; only
	// overload rejections (rate_limited, queue_full, shutting_down)
	// set it, mirroring the Retry-After header at sub-second precision.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
	// Details carries code-specific structured context: queue_depth and
	// queue_capacity for overload codes, field for validation errors, item
	// for batch expansion errors.
	Details map[string]any `json:"details,omitempty"`
}

// errorEnvelope is the JSON document of every HTTP error response:
// {"error":{"code","message","retry_after_s","details"}}.
type errorEnvelope struct {
	Error APIError `json:"error"`
}

// apiError classifies err into its envelope body and HTTP status. It is the
// single mapping every handler (and the batch stream) goes through, so the
// same error can never wear two codes on two endpoints.
func apiError(err error) (int, APIError) {
	var rl *admit.RateLimitError
	var ve *scenario.ValueError
	switch {
	case errors.As(err, &rl):
		return http.StatusTooManyRequests, APIError{
			Code: CodeRateLimited, Message: err.Error(),
			RetryAfterS: rl.RetryAfter.Seconds(),
		}
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, APIError{
			Code: CodeQueueFull, Message: err.Error(), RetryAfterS: 1,
		}
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable, APIError{
			Code: CodeShuttingDown, Message: err.Error(), RetryAfterS: 1,
		}
	case errors.Is(err, ErrNoBase):
		return http.StatusNotFound, APIError{Code: CodeNotFound, Message: err.Error()}
	case errors.Is(err, ErrBatchTooLarge):
		return http.StatusBadRequest, APIError{Code: CodeBatchLimit, Message: err.Error()}
	case errors.Is(err, scenario.ErrBadDelta), errors.Is(err, scenario.ErrUnknownEntity):
		return http.StatusBadRequest, APIError{Code: CodeBadDelta, Message: err.Error()}
	case errors.As(err, &ve):
		return http.StatusBadRequest, APIError{
			Code: CodeBadRequest, Message: err.Error(),
			Details: map[string]any{"field": ve.Field},
		}
	default:
		return http.StatusBadRequest, APIError{Code: CodeBadRequest, Message: err.Error()}
	}
}

// isOverloadCode reports whether code is an overload rejection that carries
// queue state and a Retry-After header.
func isOverloadCode(code string) bool {
	switch code {
	case CodeRateLimited, CodeQueueFull, CodeShuttingDown:
		return true
	}
	return false
}

// writeAPIError writes the unified envelope for err. Overload codes gain
// queue state in details and a Retry-After header (whole seconds, rounded
// up, at least 1 — the header does not admit finer precision).
func (s *Server) writeAPIError(w http.ResponseWriter, err error) {
	status, body := apiError(err)
	s.writeAPIErrorBody(w, status, body)
}

// writeAPIErrorBody finishes an already-classified error: queue state and
// the Retry-After header derive from the body, never from the caller.
func (s *Server) writeAPIErrorBody(w http.ResponseWriter, status int, body APIError) {
	if isOverloadCode(body.Code) {
		if body.Details == nil {
			body.Details = map[string]any{}
		}
		body.Details["queue_depth"] = s.pool.Len()
		body.Details["queue_capacity"] = s.pool.Cap()
		secs := int64(math.Ceil(body.RetryAfterS))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, errorEnvelope{Error: body})
}
