package admit

import (
	"errors"
	"testing"
	"time"

	"sagrelay/internal/fault"
)

func TestSizeClassBuckets(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {8, 0}, {9, 1}, {16, 1}, {18, 2}, {32, 2}, {64, 3}, {1000, 7},
	}
	for _, c := range cases {
		if got := SizeClass(c.n); got != c.want {
			t.Errorf("SizeClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCostModelColdThenWarm(t *testing.T) {
	m := NewCostModel()
	if _, _, ok := m.Estimate(0); ok {
		t.Fatal("cold model claims an estimate")
	}
	m.Observe(0, 1.0)
	m.Observe(0, 1.0)
	if _, _, ok := m.Estimate(0); ok {
		t.Fatalf("model with %d obs sheds before costMinSamples=%d", 2, costMinSamples)
	}
	m.Observe(0, 1.0)
	est, mean, ok := m.Estimate(0)
	if !ok || est != 1.0 || mean != 1.0 {
		t.Fatalf("Estimate = (%v, %v, %v), want (1, 1, true)", est, mean, ok)
	}
	// An unseen class falls back to the overall mean.
	est2, _, ok := m.Estimate(5)
	if !ok || est2 != mean {
		t.Fatalf("unseen class estimate %v, want overall mean %v", est2, mean)
	}
	// A slow class dominates its own estimate but only nudges the overall.
	for i := 0; i < 5; i++ {
		m.Observe(3, 10.0)
	}
	est3, mean3, _ := m.Estimate(3)
	if est3 < 5.0 {
		t.Fatalf("class-3 estimate %v should approach 10", est3)
	}
	if mean3 >= est3 {
		t.Fatalf("overall mean %v should lag the slow class %v", mean3, est3)
	}
}

func TestRateLimiterBurstAndRefill(t *testing.T) {
	l := NewRateLimiter(1.0, 2, 16)
	t0 := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if _, ok := l.Allow("a", t0); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	retry, ok := l.Allow("a", t0)
	if ok {
		t.Fatal("third immediate request admitted past burst=2")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s]", retry)
	}
	// A different client has its own bucket.
	if _, ok := l.Allow("b", t0); !ok {
		t.Fatal("client b denied by client a's bucket")
	}
	// After a second, one token has accrued.
	if _, ok := l.Allow("a", t0.Add(time.Second)); !ok {
		t.Fatal("refilled token denied")
	}
	if _, ok := l.Allow("a", t0.Add(time.Second)); ok {
		t.Fatal("second token admitted after only one refill")
	}
	// rate <= 0 disables limiting.
	off := NewRateLimiter(0, 1, 16)
	for i := 0; i < 100; i++ {
		if _, ok := off.Allow("a", t0); !ok {
			t.Fatal("disabled limiter denied a request")
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	t0 := time.Unix(2000, 0)
	b := NewBreaker(0.5, 4, 3, time.Second)
	if hf, probe := b.Allow(t0); hf || probe {
		t.Fatal("closed breaker must issue the exact pipeline")
	}
	b.Record(false, false, t0)
	b.Record(true, false, t0)
	if b.State() != BreakerClosed {
		t.Fatal("breaker tripped below minSamples")
	}
	b.Record(true, false, t0)
	if b.State() != BreakerOpen {
		t.Fatalf("2/3 bad >= 0.5 should open the breaker; state %v", b.State())
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}

	// While open and inside the cooldown: heuristic-first, no probe.
	if hf, probe := b.Allow(t0.Add(100 * time.Millisecond)); !hf || probe {
		t.Fatal("open breaker inside cooldown must issue heuristic-first")
	}
	// After cooldown: exactly one probe, everyone else heuristic-first.
	hf, probe := b.Allow(t0.Add(2 * time.Second))
	if hf || !probe {
		t.Fatal("first job past cooldown must be the probe")
	}
	if hf2, probe2 := b.Allow(t0.Add(2 * time.Second)); !hf2 || probe2 {
		t.Fatal("second job during half-open must be heuristic-first")
	}
	// A bad probe re-opens (and re-counts the trip).
	b.Record(true, true, t0.Add(2*time.Second))
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("bad probe: state %v trips %d, want open/2", b.State(), b.Trips())
	}
	// An aborted probe hands the claim back.
	_, probe = b.Allow(t0.Add(4 * time.Second))
	if !probe {
		t.Fatal("expected a new probe after the second cooldown")
	}
	b.AbortProbe()
	_, probe = b.Allow(t0.Add(4 * time.Second))
	if !probe {
		t.Fatal("aborted probe claim was not reissued")
	}
	// A clean probe closes the breaker and resets the window.
	b.Record(false, true, t0.Add(4*time.Second))
	if b.State() != BreakerClosed {
		t.Fatalf("clean probe left state %v", b.State())
	}
	// The reset window means one new bad outcome cannot instantly re-trip.
	b.Record(true, false, t0.Add(5*time.Second))
	if b.State() != BreakerClosed {
		t.Fatal("window was not reset by the clean probe")
	}
}

func TestBreakerSlidingWindowEvicts(t *testing.T) {
	b := NewBreaker(0.75, 4, 4, time.Second)
	t0 := time.Unix(3000, 0)
	// Two bad then two good: 0.5 < 0.75, stays closed.
	b.Record(true, false, t0)
	b.Record(true, false, t0)
	b.Record(false, false, t0)
	b.Record(false, false, t0)
	if b.State() != BreakerClosed {
		t.Fatalf("2/4 bad tripped a 0.75 breaker (state %v)", b.State())
	}
	// Four goods age the two bads out of the window entirely...
	for i := 0; i < 4; i++ {
		b.Record(false, false, t0)
	}
	// ...so two fresh bads are again only 2/4, not 4/8.
	b.Record(true, false, t0)
	b.Record(true, false, t0)
	if b.State() != BreakerClosed {
		t.Fatalf("aged-out failures still counted (state %v)", b.State())
	}
	// One more bad makes 3/4 >= 0.75 within the current window: trip.
	b.Record(true, false, t0)
	if b.State() != BreakerOpen {
		t.Fatalf("3/4 bad did not trip (state %v)", b.State())
	}
}

func TestControllerShedsWhenDeadlineTooTight(t *testing.T) {
	c := New(Options{BreakerThreshold: 2})
	// Warm the model: three one-second solves.
	for i := 0; i < 3; i++ {
		c.Finish(c.Begin(), Outcome{SizeClass: 0, Seconds: 1.0})
	}
	// Plenty of budget: admitted, with estimates attached.
	d, err := c.Admit(0, 0, 2, 0, time.Minute)
	if err != nil {
		t.Fatalf("generous deadline shed: %v", err)
	}
	if d.EstSolve <= 0 {
		t.Fatal("warm model returned no estimate")
	}
	// 10ms budget against a ~1s estimate: shed with a typed error.
	_, err = c.Admit(0, 4, 2, 0, 10*time.Millisecond)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("tight deadline returned %v, want *ShedError", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatal("ShedError carries no RetryAfter")
	}
	if shed.EstWait <= 0 {
		t.Fatal("queued jobs contribute no estimated wait")
	}
	// The backlog drains across the workers: with the same model and queue
	// depth, twice the workers halve the estimated wait.
	d2, err := c.Admit(0, 4, 2, 0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := c.Admit(0, 4, 4, 0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if d4.EstWait*2 != d2.EstWait {
		t.Fatalf("EstWait with 4 workers = %v, want half of %v with 2", d4.EstWait, d2.EstWait)
	}
}

func TestControllerColdModelAdmitsEverything(t *testing.T) {
	c := New(Options{})
	if _, err := c.Admit(3, 1000, 1, 0, time.Nanosecond); err != nil {
		t.Fatalf("cold model shed a job: %v", err)
	}
}

func TestControllerRateLimitTyped(t *testing.T) {
	c := New(Options{Rate: 1, Burst: 1})
	if err := c.AllowClient("k"); err != nil {
		t.Fatal(err)
	}
	err := c.AllowClient("k")
	var rl *RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("second immediate request returned %v, want *RateLimitError", err)
	}
	if rl.RetryAfter <= 0 {
		t.Fatal("RateLimitError carries no RetryAfter")
	}
	if err := c.AllowClient(""); err != nil {
		t.Fatal("internal (empty) client must never be limited")
	}
}

func TestForcedShedAndTripFaultSites(t *testing.T) {
	if err := fault.EnableSpec("admit.shed=error:n=1", 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
	c := New(Options{})
	_, err := c.Admit(0, 0, 1, 0, time.Minute)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("armed admit.shed returned %v, want *ShedError", err)
	}
	if _, err := c.Admit(0, 0, 1, 0, time.Minute); err != nil {
		t.Fatalf("n=1 rule still firing: %v", err)
	}

	// Panic-kind rules are recovered into the forced decision.
	if err := fault.EnableSpec("admit.shed=panic:n=1", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(0, 0, 1, 0, time.Minute); !errors.As(err, &shed) {
		t.Fatalf("panic-kind shed returned %v, want *ShedError", err)
	}

	// admit.breaker forces a deterministic trip at Finish.
	if err := fault.EnableSpec("admit.breaker=error:n=1", 1); err != nil {
		t.Fatal(err)
	}
	c.Finish(c.Begin(), Outcome{SizeClass: 0, Seconds: 0.01})
	if c.BreakerState() != int64(BreakerOpen) {
		t.Fatalf("armed admit.breaker left state %d, want open", c.BreakerState())
	}
	if c.BreakerTrips() != 1 {
		t.Fatalf("trips = %d, want 1", c.BreakerTrips())
	}
}

func TestFinishIsIdempotent(t *testing.T) {
	c := New(Options{})
	g := c.Begin()
	c.Finish(g, Outcome{Seconds: 0.1})
	// Backstop call with a bad outcome: it must reach neither the breaker
	// window nor the cost model.
	c.Finish(g, Outcome{DeadlineMiss: true, Seconds: 100})
	c.br.mu.Lock()
	windowed, bad := c.br.count, c.br.bad
	c.br.mu.Unlock()
	if windowed != 1 || bad != 0 {
		t.Fatalf("breaker window holds %d outcomes (%d bad) after double Finish, want 1 (0 bad)", windowed, bad)
	}
	c.cost.mu.Lock()
	n, mean := c.cost.overall.n, c.cost.overall.mean
	c.cost.mu.Unlock()
	if n != 1 || mean != 0.1 {
		t.Fatalf("cost model saw %d solves (mean %v) after double Finish, want 1 (0.1)", n, mean)
	}
	c.Finish(nil, Outcome{}) // nil grant no-op
}
