package serve

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sagrelay/internal/fault"
	"sagrelay/internal/scenario"
)

// The overload replay drives a real Server with open-loop Poisson traffic
// of distinct IAC scenarios shaped like the iac-zones fields (500x500,
// 30 subscribers, 4 base stations), each carrying a one-second deadline.
// The offered rate is expressed in solve-cost units: every replay first
// solves the same replayCalibrate scenarios one at a time on the idle
// server, then offers load x workers / mean solve seconds for replaySpan.
// IAC solve times are heavy-tailed across fields, so the calibration set is
// fixed rather than drawn per replay: the offered rate then moves only with
// the machine, not with the draw.
const (
	replayWorkers   = 2
	replayQueue     = 256
	replayDeadline  = time.Second
	replaySpan      = 20 * time.Second
	replayCalibrate = 16
)

// replayPhases are the traffic shapes: load is the offered rate in units
// of calibrated capacity. The slow-dependency phase arms a fault delay on
// simplex pivots for the whole replay, calibration included, so its rate is
// 1.4x the slowed capacity; overload-3x is the heavy-overload shape.
var replayPhases = []struct {
	name, fault string
	load        float64
}{
	{name: "overload", load: 1.4},
	{name: "slow-dependency", fault: "lp.pivot=delay:p=0.02:d=1ms", load: 1.4},
	{name: "overload-3x", load: 3},
}

// replayStats accumulates one phase's outcome over the benchmark's
// iterations. An answer is a job that ended with a result document,
// degraded ones included: the degrade ladder is the service's way of
// answering on time. A refusal is a submit error other than a full queue
// (a server that sheds by deadline refuses that way).
type replayStats struct {
	seconds, rate, solveSeconds       float64
	sent, answered, cancelled, failed int
	refused, rejected, degraded       int
	latencies                         []float64
}

// BenchmarkOverloadReplay measures what the admission stack does to
// on-time answers under overload. Each iteration is one replay on a fresh
// server with arrival seed i+1; run it with -benchtime Nx:
//
//	go test -run '^$' -bench OverloadReplay -benchtime 2x ./internal/serve/
//
// Reported per phase: answers per second of offered traffic (on-time/s),
// the share of sent requests answered, exact (non-degraded) answers per
// second, the per-replay counts of cancelled (deadline hit with no answer),
// refused, queue-full, failed and degraded jobs, and p50/p99 latency of the
// answered requests (submit to result).
func BenchmarkOverloadReplay(b *testing.B) {
	for _, ph := range replayPhases {
		b.Run(ph.name, func(b *testing.B) {
			var st replayStats
			for i := 0; i < b.N; i++ {
				runReplay(b, ph.fault, ph.load, int64(i+1), &st)
			}
			n := float64(b.N)
			slices.Sort(st.latencies)
			b.ReportMetric(float64(st.answered)/st.seconds, "on-time/s")
			b.ReportMetric(float64(st.answered)/float64(st.sent), "answered-share")
			b.ReportMetric(float64(st.answered-st.degraded)/st.seconds, "exact/s")
			b.ReportMetric(float64(st.cancelled)/n, "cancelled/op")
			b.ReportMetric(float64(st.refused)/n, "refused/op")
			b.ReportMetric(float64(st.rejected)/n, "queue-full/op")
			b.ReportMetric(float64(st.failed)/n, "failed/op")
			b.ReportMetric(float64(st.degraded)/n, "degraded/op")
			b.ReportMetric(float64(st.sent)/n, "sent/op")
			b.ReportMetric(st.rate/n, "offered-req/s")
			b.ReportMetric(st.solveSeconds/n*1000, "solve-ms")
			b.ReportMetric(percentile(st.latencies, 0.50), "p50-s")
			b.ReportMetric(percentile(st.latencies, 0.99), "p99-s")
		})
	}
}

// runReplay runs one calibrated replay at load x capacity with the given
// arrival seed and adds its outcome to st.
func runReplay(b *testing.B, faultSpec string, load float64, seed int64, st *replayStats) {
	b.Helper()
	if faultSpec != "" {
		if err := fault.EnableSpec(faultSpec, seed); err != nil {
			b.Fatal(err)
		}
		defer fault.Disable()
	}
	s, err := NewServer(Options{Workers: replayWorkers, QueueDepth: replayQueue})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Errorf("shutdown: %v", err)
		}
	}()
	// Scenario seeds: calibration uses 0..replayCalibrate-1, the replay
	// seed<<20 + i, so no request is ever a cache hit.
	opts := SolveOptions{Coverage: "IAC", Workers: 1}

	// Calibration: unloaded solves, one at a time, no deadline, as on a
	// server that has been serving.
	var solve float64
	for k := 0; k < replayCalibrate; k++ {
		job, err := s.Submit(SolveRequest{Scenario: replayScenario(b, int64(k)), Options: opts})
		if err != nil {
			b.Fatal(err)
		}
		<-job.done
		job.mu.Lock()
		solve += job.finished.Sub(job.started).Seconds()
		job.mu.Unlock()
	}
	solve /= replayCalibrate
	rate := load * replayWorkers / solve

	rng := rand.New(rand.NewSource(seed))
	var at []time.Duration
	for t := rng.ExpFloat64() / rate; t < replaySpan.Seconds(); t += rng.ExpFloat64() / rate {
		at = append(at, time.Duration(t*float64(time.Second)))
	}
	scs := make([]*scenario.Scenario, len(at))
	for i := range scs {
		scs[i] = replayScenario(b, seed<<20+int64(i))
	}
	degraded0 := s.metrics.JobsDegraded.Load()

	opts.TimeoutMS = replayDeadline.Milliseconds()
	var jobs []*Job
	start := time.Now()
	for i, sc := range scs {
		time.Sleep(time.Until(start.Add(at[i])))
		job, err := s.Submit(SolveRequest{Scenario: sc, Options: opts})
		switch {
		case err == nil:
			jobs = append(jobs, job)
		case errors.Is(err, ErrQueueFull):
			st.rejected++
		default:
			st.refused++
		}
	}
	for _, job := range jobs {
		select {
		case <-job.done:
		case <-time.After(2 * time.Minute):
			b.Fatalf("job %s still %v two minutes after the replay", job.ID, job.status().State)
		}
		job.mu.Lock()
		switch job.state {
		case StateDone:
			st.answered++
			st.latencies = append(st.latencies, job.finished.Sub(job.created).Seconds())
		case StateCancelled:
			st.cancelled++
		default:
			st.failed++
		}
		job.mu.Unlock()
	}
	st.seconds += replaySpan.Seconds()
	st.rate += rate
	st.solveSeconds += solve
	st.sent += len(scs)
	st.degraded += int(s.metrics.JobsDegraded.Load() - degraded0)
}

func replayScenario(tb testing.TB, seed int64) *scenario.Scenario {
	tb.Helper()
	sc, err := scenario.Generate(scenario.GenConfig{
		FieldSide: 500, NumSS: 30, NumBS: 4, SNRdB: -15, Seed: seed,
	})
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	return sc
}

// percentile is the nearest-rank q-quantile of sorted xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[int(q*float64(len(xs)-1)+0.5)]
}
