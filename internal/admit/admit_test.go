package admit

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"sagrelay/internal/fault"
)

// allowed reports whether l admits client at now.
func allowed(t *testing.T, l *RateLimiter, client string, now time.Time) bool {
	t.Helper()
	err := l.Allow(client, now)
	if err == nil {
		return true
	}
	var rl *RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("Allow(%q) = %v, want nil or *RateLimitError", client, err)
	}
	return false
}

func TestRateLimiterBurstAndRefill(t *testing.T) {
	l := NewRateLimiter(1.0, 2)
	t0 := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if !allowed(t, l, "a", t0) {
			t.Fatalf("burst token %d denied", i)
		}
	}
	err := l.Allow("a", t0)
	var rl *RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("third immediate request returned %v, want *RateLimitError past burst=2", err)
	}
	if rl.Client != "a" || rl.RetryAfter <= 0 || rl.RetryAfter > time.Second {
		t.Fatalf("RateLimitError = %+v, want client a and RetryAfter in (0, 1s]", rl)
	}
	// A different client has its own bucket.
	if !allowed(t, l, "b", t0) {
		t.Fatal("client b denied by client a's bucket")
	}
	// After a second, one token has accrued.
	if !allowed(t, l, "a", t0.Add(time.Second)) {
		t.Fatal("refilled token denied")
	}
	if allowed(t, l, "a", t0.Add(time.Second)) {
		t.Fatal("second token admitted after only one refill")
	}
	// The internal (empty) client is never limited.
	for i := 0; i < 10; i++ {
		if !allowed(t, l, "", t0) {
			t.Fatal("internal (empty) client rate limited")
		}
	}
	// rate <= 0 disables limiting.
	off := NewRateLimiter(0, 1)
	for i := 0; i < 100; i++ {
		if !allowed(t, off, "a", t0) {
			t.Fatal("disabled limiter denied a request")
		}
	}
}

// TestRateLimiterDerivedBurst: burst 0 takes the rate's whole part, and at
// least one token.
func TestRateLimiterDerivedBurst(t *testing.T) {
	t0 := time.Unix(1000, 0)
	for _, c := range []struct {
		rate float64
		want int
	}{{0.001, 1}, {1, 1}, {3.7, 3}} {
		l := NewRateLimiter(c.rate, 0)
		got := 0
		for allowed(t, l, "a", t0) {
			got++
		}
		if got != c.want {
			t.Errorf("rate %v, burst 0: %d immediate requests admitted, want %d", c.rate, got, c.want)
		}
	}
}

// TestRateLimiterBoundsClientTable: a scan of unique clients keeps at most
// maxClients buckets, and an evicted client re-enters with a full bucket.
func TestRateLimiterBoundsClientTable(t *testing.T) {
	l := NewRateLimiter(0.001, 1)
	t0 := time.Unix(1000, 0)
	if !allowed(t, l, "first", t0) || allowed(t, l, "first", t0) {
		t.Fatal("burst of 1 not enforced")
	}
	for i := 0; i < maxClients; i++ {
		allowed(t, l, "scan-"+strconv.Itoa(i), t0)
	}
	if n := l.buckets.Len(); n != maxClients {
		t.Errorf("bucket table holds %d clients, want %d", n, maxClients)
	}
	if !allowed(t, l, "first", t0) {
		t.Error("evicted client did not re-enter with a full bucket")
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

func TestForcedTripFaultSite(t *testing.T) {
	// admit.breaker forces a deterministic trip at Finish.
	if err := fault.EnableSpec("admit.breaker=error:n=1", 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
	c := New(Options{})
	c.Finish(c.Begin(), Outcome{})
	if c.BreakerState() != int64(BreakerOpen) {
		t.Fatalf("armed admit.breaker left state %d, want open", c.BreakerState())
	}
	if c.BreakerTrips() != 1 {
		t.Fatalf("trips = %d, want 1", c.BreakerTrips())
	}

	// Panic-kind rules are recovered into the forced decision.
	if err := fault.EnableSpec("admit.breaker=panic:n=1", 1); err != nil {
		t.Fatal(err)
	}
	c = New(Options{})
	c.Finish(c.Begin(), Outcome{})
	if c.BreakerState() != int64(BreakerOpen) {
		t.Fatalf("panic-kind admit.breaker left state %d, want open", c.BreakerState())
	}
}

func TestFinishIsIdempotent(t *testing.T) {
	c := New(Options{})
	g := c.Begin()
	c.Finish(g, Outcome{})
	// Backstop call with a bad outcome: it must not reach the breaker
	// window.
	c.Finish(g, Outcome{DeadlineMiss: true})
	c.br.mu.Lock()
	windowed, bad := c.br.count, c.br.bad
	c.br.mu.Unlock()
	if windowed != 1 || bad != 0 {
		t.Fatalf("breaker window holds %d outcomes (%d bad) after double Finish, want 1 (0 bad)", windowed, bad)
	}
	c.Finish(nil, Outcome{}) // nil grant no-op
}
