package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"math/rand"
	"os"
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
	// replayResamples is the bootstrap's resample count; the resampling
	// seed is fixed, so the same answers always give the same interval.
	replayResamples = 2000
)

// Replay flags, for paired runs of two builds: -replay-seed moves the
// arrival seeds (iteration i uses seed+i), -replay-dump appends each
// phase's pooled outcome to a file as one JSON line, and TestReplayPool
// reports the lines of -replay-pool files pooled per phase.
var (
	replaySeedFlag = flag.Int64("replay-seed", 1, "arrival seed of the overload replay's first iteration")
	replayDumpFlag = flag.String("replay-dump", "", "append each overload replay phase's outcome to this file as a JSON line")
	replayPoolFlag = flag.String("replay-pool", "", "TestReplayPool: file of -replay-dump lines to pool per phase")
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

// replayStats accumulates one phase's outcome over replays. An answer is a
// job that ended with a result document, degraded ones included: the
// degrade ladder is the service's way of answering on time. A refusal is a
// submit error other than a full queue (a server that sheds by deadline
// refuses that way). Latencies holds every answer's submit-to-result
// seconds; the Sent-Answered requests without one count as +Inf in the
// request-level tail.
type replayStats struct {
	Phase                             string
	Replays                           int
	Seconds, Rate, SolveSeconds       float64
	Sent, Answered, Cancelled, Failed int
	Refused, Rejected, Degraded       int
	Latencies                         []float64
}

// add pools o into st.
func (st *replayStats) add(o replayStats) {
	st.Replays += o.Replays
	st.Seconds += o.Seconds
	st.Rate += o.Rate
	st.SolveSeconds += o.SolveSeconds
	st.Sent += o.Sent
	st.Answered += o.Answered
	st.Cancelled += o.Cancelled
	st.Failed += o.Failed
	st.Refused += o.Refused
	st.Rejected += o.Rejected
	st.Degraded += o.Degraded
	st.Latencies = append(st.Latencies, o.Latencies...)
}

// report hands each metric of st, pooled over its replays, to emit:
// answers per second of offered traffic (on-time/s), the share of sent
// requests answered, exact (non-degraded) answers per second, the share of
// sent requests answered exactly (exact-share), the per-replay counts of
// cancelled (deadline hit with no answer), refused, queue-full, failed and
// degraded jobs, p50 and p99 latency of the answers with a 95% bootstrap
// interval for the p99, and the p99 over every request sent (req-p99-s),
// which reads +Inf once more than 1% of the requests go unanswered.
//
// exact-share is the headline of a paired comparison. Each replay
// calibrates its own offered rate, so host speed drift changes the load
// and exact/s with it; exact-share is a ratio to the replay's own load, so
// the drift cancels out.
func (st *replayStats) report(emit func(v float64, unit string)) {
	n := float64(st.Replays)
	slices.Sort(st.Latencies)
	lo, hi := bootstrapP99(st.Latencies)
	emit(float64(st.Answered)/st.Seconds, "on-time/s")
	emit(float64(st.Answered)/float64(st.Sent), "answered-share")
	emit(float64(st.Answered-st.Degraded)/st.Seconds, "exact/s")
	emit(float64(st.Answered-st.Degraded)/float64(st.Sent), "exact-share")
	emit(float64(st.Cancelled)/n, "cancelled/op")
	emit(float64(st.Refused)/n, "refused/op")
	emit(float64(st.Rejected)/n, "queue-full/op")
	emit(float64(st.Failed)/n, "failed/op")
	emit(float64(st.Degraded)/n, "degraded/op")
	emit(float64(st.Sent)/n, "sent/op")
	emit(st.Rate/n, "offered-req/s")
	emit(st.SolveSeconds/n*1000, "solve-ms")
	emit(quantile(st.Latencies, len(st.Latencies), 0.50), "p50-s")
	emit(quantile(st.Latencies, len(st.Latencies), 0.99), "p99-s")
	emit(lo, "p99-lo-s")
	emit(hi, "p99-hi-s")
	emit(quantile(st.Latencies, st.Sent, 0.99), "req-p99-s")
}

// BenchmarkOverloadReplay measures what the admission stack does to
// on-time answers under overload. Each iteration is one replay on a fresh
// server with arrival seed -replay-seed+i, and every metric pools the
// iterations' requests; run it with -benchtime Nx:
//
//	go test -run '^$' -bench OverloadReplay -benchtime 2x ./internal/serve/
//
// A job that ends failed fails the benchmark: no phase arms anything but a
// delay, so a failure is a broken overload path.
func BenchmarkOverloadReplay(b *testing.B) {
	for _, ph := range replayPhases {
		b.Run(ph.name, func(b *testing.B) {
			st := replayStats{Phase: ph.name}
			for i := 0; i < b.N; i++ {
				runReplay(b, ph.fault, ph.load, *replaySeedFlag+int64(i), &st)
			}
			if st.Failed > 0 {
				b.Errorf("%d of %d jobs failed", st.Failed, st.Sent)
			}
			if *replayDumpFlag != "" {
				dumpReplay(b, *replayDumpFlag, st)
			}
			st.report(b.ReportMetric)
		})
	}
}

// dumpReplay appends st to path as one JSON line.
func dumpReplay(b *testing.B, path string, st replayStats) {
	b.Helper()
	line, err := json.Marshal(st)
	if err != nil {
		b.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestReplayPool pools the -replay-dump lines of the -replay-pool file per
// phase and logs the benchmark's metrics over them, so the runs of one
// build in a paired measurement read as one sample:
//
//	go test -run TestReplayPool -v ./internal/serve/ -args -replay-pool FILE
func TestReplayPool(t *testing.T) {
	if *replayPoolFlag == "" {
		t.Skip("no -replay-pool file")
	}
	f, err := os.Open(*replayPoolFlag)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pooled := map[string]*replayStats{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var st replayStats
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if pooled[st.Phase] == nil {
			pooled[st.Phase] = &replayStats{Phase: st.Phase}
		}
		pooled[st.Phase].add(st)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, ph := range replayPhases {
		if st := pooled[ph.name]; st != nil {
			t.Logf("%s: %d replays", ph.name, st.Replays)
			st.report(func(v float64, unit string) { t.Logf("  %-15s %.6g", unit, v) })
		}
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
			st.Rejected++
		default:
			st.Refused++
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
			st.Answered++
			st.Latencies = append(st.Latencies, job.finished.Sub(job.created).Seconds())
		case StateCancelled:
			st.Cancelled++
		default:
			st.Failed++
			b.Logf("job %s failed: %s", job.ID, job.err)
		}
		job.mu.Unlock()
	}
	st.Replays++
	st.Seconds += replaySpan.Seconds()
	st.Rate += rate
	st.SolveSeconds += solve
	st.Sent += len(scs)
	st.Degraded += int(s.metrics.JobsDegraded.Load() - degraded0)
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

// quantile is the nearest-rank q-quantile of n requests whose answers have
// the sorted latencies xs: the n-len(xs) unanswered requests rank above
// every answer, as +Inf. It is 0 when n is 0.
func quantile(xs []float64, n int, q float64) float64 {
	if n == 0 {
		return 0
	}
	i := rank(q, n)
	if i >= len(xs) {
		return math.Inf(1)
	}
	return xs[i]
}

// rank is the 0-based index of the nearest-rank q-quantile of n values.
func rank(q float64, n int) int {
	return max(int(math.Ceil(q*float64(n)-1e-9))-1, 0)
}

// bootstrapP99 is the 95% percentile-bootstrap interval of the p99 of the
// sorted latencies xs (0, 0 when empty). A resample of sorted values,
// sorted, is xs at its sorted indices, so each resample sorts indices.
func bootstrapP99(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(1))
	k := rank(0.99, len(xs))
	idx := make([]int, len(xs))
	est := make([]float64, replayResamples)
	for r := range est {
		for i := range idx {
			idx[i] = rng.Intn(len(xs))
		}
		slices.Sort(idx)
		est[r] = xs[idx[k]]
	}
	slices.Sort(est)
	return quantile(est, len(est), 0.025), quantile(est, len(est), 0.975)
}
