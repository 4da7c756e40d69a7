package serve

import (
	"strconv"
	"strings"
	"sync/atomic"

	"sagrelay/internal/core"
	"sagrelay/internal/fault"
	"sagrelay/internal/incr"
	"sagrelay/internal/milp"
	"sagrelay/internal/obs"
)

// Metrics holds the service's own counters: monotonically increasing
// atomics read without locks. Each is published by metricsRegistry, whose
// help text documents it; SolveMicros/Solves is the mean solve latency.
// Counters are process-lifetime; there is no reset.
type Metrics struct {
	JobsAccepted, JobsRejected, JobsCompleted, JobsFailed, JobsCancelled atomic.Int64
	JobsPanicked, JobsDegraded, RateLimited                              atomic.Int64
	BatchesTotal, BatchItemsTotal                                        atomic.Int64
	CacheHits, CacheMisses, Resolves, SolveMicros, Solves                atomic.Int64
	JournalErrors, JournalRestored, JournalReplayed, JournalCorrupt      atomic.Int64
	ProgressStreams                                                      atomic.Int64
}

// metricsSchema versions the /metrics JSON document. Bump it when keys are
// added, renamed or change meaning, so scrapers can detect drift instead of
// silently misreading counters. History:
//
//	sagmetrics/1  (implicit) the PR-3 document, no schema field
//	sagmetrics/2  schema field added; Prometheus exposition at
//	              /metrics?format=prometheus serves the same counters
//	sagmetrics/3  incremental re-solve keys added (resolves, zone reuse
//	              and re-solve totals, zone store size)
//	sagmetrics/4  admission-control keys added (shedding, rate limiting,
//	              breaker state and trips, concurrency limit, journal
//	              corruption)
//	sagmetrics/5  batch keys added (batches, their items, shed items)
//	sagmetrics/6  introspection keys added (queue depth and flight ring
//	              gauges, opened progress streams)
//	sagmetrics/7  inflight_limit dropped with the AIMD limiter
//	sagmetrics/8  jobs_shed_total and batch_items_shed dropped with
//	              deadline-aware shedding
//	sagmetrics/9  breaker_state and breaker_trips_total dropped with the
//	              degrade circuit breaker
const metricsSchema = "sagmetrics/9"

// seriesPrefix turns a /metrics JSON key into its Prometheus series name.
const seriesPrefix = "sag_"

// metricsRegistry declares every /metrics series exactly once, in JSON wire
// order: key, kind, help text and read function. The JSON document (schema
// first, then these keys in this order), MetricsSnapshot and the Prometheus
// exposition (each key prefixed "sag_") all render from this one list, so
// they cannot drift: a value mismatch between them would mean a torn read,
// not a wiring bug.
func (s *Server) metricsRegistry() *obs.Registry {
	r := obs.NewRegistry()
	m := &s.metrics
	counter := func(key, help string, fn func() int64) { r.Counter(seriesPrefix+key, help, fn) }
	gauge := func(key, help string, fn func() int64) { r.Gauge(seriesPrefix+key, help, fn) }

	counter("jobs_accepted", "Solve submissions admitted to the queue (cache hits included).", m.JobsAccepted.Load)
	counter("jobs_rejected", "Submissions refused with backpressure or during shutdown.", m.JobsRejected.Load)
	counter("jobs_completed", "Jobs that finished with a result document.", m.JobsCompleted.Load)
	counter("jobs_failed", "Jobs that ended in a non-cancellation error.", m.JobsFailed.Load)
	counter("jobs_cancelled", "Jobs ended by deadline, client cancel or shutdown.", m.JobsCancelled.Load)
	counter("jobs_panicked", "Jobs whose solve panicked (each also counted as failed).", m.JobsPanicked.Load)
	counter("jobs_degraded", "Completed jobs that used a heuristic fallback stage.", m.JobsDegraded.Load)
	counter("rate_limited_total", "Submissions rejected by per-client rate limiting.", m.RateLimited.Load)
	counter("batches_total", "Accepted POST /v1/batch submissions.", m.BatchesTotal.Load)
	counter("batch_items_total", "Items accepted batches expanded to.", m.BatchItemsTotal.Load)
	counter("cache_hits", "Result-cache hits at submit time.", m.CacheHits.Load)
	counter("cache_misses", "Result-cache misses at submit time.", m.CacheMisses.Load)
	gauge("cache_entries", "Result documents currently cached.", func() int64 { return int64(s.cache.Len()) })
	counter("incr_resolves", "Accepted /v1/resolve submissions (whole-result cache hits included).", m.Resolves.Load)
	counter("incr_zones_reused_total", "Zone coverage solutions spliced from the zone store.", incr.ZonesReused)
	counter("incr_zones_resolved_total", "Zone coverage solutions computed by an actual solve.", incr.ZonesResolved)
	gauge("zone_cache_entries", "Zone placement entries currently stored.", func() int64 { return int64(s.incrStores.Len()) })
	counter("solve_micros_total", "Accumulated wall-clock solver microseconds (cache hits excluded).", m.SolveMicros.Load)
	counter("solves", "Completed solves the accumulated solver microseconds span.", m.Solves.Load)
	counter("bb_nodes_total", "Process-wide branch-and-bound nodes explored.", milp.TotalNodes)
	counter("panics_recovered", "Process-wide panics converted into errors.", fault.RecoveredPanics)
	counter("solver_retries_total", "Degradation-ladder stage retries.", core.TotalRetries)
	counter("solver_fallbacks_total", "Degradation-ladder fallback activations.", core.TotalFallbacks)
	counter("faults_injected_total", "Fired fault-injection rules.", fault.FiredTotal)
	counter("journal_errors", "Journal append/compact/result-file failures (never fail the job).", m.JournalErrors.Load)
	counter("journal_restored_jobs", "Jobs restored to a terminal state from the journal.", m.JournalRestored.Load)
	counter("journal_replayed_jobs", "Journaled unfinished jobs re-submitted at startup.", m.JournalReplayed.Load)
	counter("journal_corrupt_records", "Mid-file journal records quarantined at startup (a torn final line is not counted).", m.JournalCorrupt.Load)
	gauge("job_queue_depth", "Jobs queued but not yet running.", func() int64 { return int64(s.pool.Len()) })
	gauge("flight_records", "Completed-job records currently retained by the flight recorder.", func() int64 {
		return int64(s.flight.Len())
	})
	counter("progress_streams_total", "Opened live progress streams (?stream=1).", m.ProgressStreams.Load)
	return r
}

// metricsDoc is the /metrics JSON document: the schema, then every series
// of the registry under its JSON key, in declaration order. writeJSON
// indents it like any other document.
type metricsDoc struct{ series *obs.Registry }

func (d metricsDoc) MarshalJSON() ([]byte, error) {
	b := append([]byte(`{"schema":`), strconv.Quote(metricsSchema)...)
	d.series.Each(func(name string, v int64) {
		b = append(b, ',')
		b = strconv.AppendQuote(b, strings.TrimPrefix(name, seriesPrefix))
		b = append(b, ':')
		b = strconv.AppendInt(b, v, 10)
	})
	return append(b, '}'), nil
}
