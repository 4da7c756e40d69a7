package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestBurstSoakAccountingAndDrain storms a deliberately tiny server (2
// workers, 4 queue slots) with 4x queue-capacity concurrent submissions and
// checks the overload invariants: every submission is either accepted or
// rejected with a typed overload error, the accounting identities hold
// exactly (no lost or double-counted job), an accepted job's answer is
// byte-identical to an unloaded server's, and after shutdown the goroutine
// count returns to its pre-server baseline (no leaks under pressure).
func TestBurstSoakAccountingAndDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s, err := NewServer(Options{Workers: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}

	// The control job runs on the idle server before the burst; its answer
	// is the one we hold to the unloaded ground truth afterwards.
	controlSc := distinctScenario(t, 400)
	control, err := s.Submit(SolveRequest{Scenario: controlSc})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, control, 60*time.Second)
	controlDoc, state := control.resultBytes()
	if state != StateDone {
		t.Fatalf("control job finished %v", state)
	}

	const burst = 16 // 4x queue capacity
	var (
		mu       sync.Mutex
		jobs     []*Job
		overload int
	)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			job, err := s.Submit(SolveRequest{Scenario: distinctScenario(t, seed)})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if errors.Is(err, ErrQueueFull) {
					overload++
					return
				}
				t.Errorf("submit seed %d: unexpected error %v", seed, err)
				return
			}
			jobs = append(jobs, job)
		}(int64(401 + i))
	}
	wg.Wait()

	if len(jobs)+overload != burst {
		t.Fatalf("accounting: %d accepted + %d overload-rejected != %d submitted",
			len(jobs), overload, burst)
	}
	for _, j := range jobs {
		waitDone(t, j, 2*time.Minute)
	}

	snap := s.MetricsSnapshot()
	submitted := int64(burst + 1) // the control job included
	accepted := snap["jobs_accepted"]
	turnedAway := snap["jobs_rejected"] + snap["rate_limited_total"]
	if accepted+turnedAway != submitted {
		t.Errorf("accepted %d + turned away %d != submitted %d (snapshot %v)",
			accepted, turnedAway, submitted, snap)
	}
	settled := snap["jobs_completed"] + snap["jobs_failed"] + snap["jobs_cancelled"]
	if settled != accepted {
		t.Errorf("settled %d (completed %d + failed %d + cancelled %d) != accepted %d",
			settled, snap["jobs_completed"], snap["jobs_failed"], snap["jobs_cancelled"], accepted)
	}
	if snap["jobs_failed"] != 0 || snap["jobs_cancelled"] != 0 {
		t.Errorf("burst of valid tiny jobs failed/cancelled some: %v", snap)
	}
	// The queue drained: nothing is left waiting for a worker.
	if depth := s.pool.Len(); depth != 0 {
		t.Errorf("queue depth %d after every job settled, want 0", depth)
	}

	// Load must not bend answers: the control result matches a fresh,
	// unloaded server solving the same scenario (traces differ by wall
	// clock, everything else is the answer).
	fresh := newTestServer(t, Options{Workers: 2})
	ref, err := fresh.Submit(SolveRequest{Scenario: controlSc})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref, 60*time.Second)
	refDoc, state := ref.resultBytes()
	if state != StateDone {
		t.Fatalf("reference job finished %v", state)
	}
	if !bytes.Equal(stripTrace(t, controlDoc), stripTrace(t, refDoc)) {
		t.Error("result under burst load differs from the unloaded server's")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Goroutines wind down asynchronously after Shutdown returns; poll
	// briefly rather than demanding an instant quiesce.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d never returned near baseline %d after shutdown",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHealthzLiveUnderDelayStorm keeps the liveness probe honest: while 12
// GAC jobs grind through an lp.pivot/serve.job delay storm, /healthz must
// keep answering in under 100ms.
func TestHealthzLiveUnderDelayStorm(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	armFault(t, "lp.pivot=delay:p=0.3:d=2ms,serve.job=delay:p=0.8:d=10ms")

	var jobs []*Job
	for i := 0; i < 12; i++ {
		job, err := s.Submit(SolveRequest{Scenario: distinctScenario(t, int64(700+i)), Options: SolveOptions{Coverage: "GAC"}})
		if err != nil {
			t.Fatalf("storm submit %d: %v", i, err)
		}
		jobs = append(jobs, job)
	}
	var worst time.Duration
	for i := 0; i < 25; i++ {
		t0 := time.Now()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz probe %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		worst = max(worst, time.Since(t0))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz probe %d: %s", i, resp.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if worst >= 100*time.Millisecond {
		t.Errorf("worst healthz latency %v under the storm, want < 100ms", worst)
	}
	for _, j := range jobs {
		waitDone(t, j, 2*time.Minute)
	}
}
