package admit

import (
	"errors"
	"math"
	"strconv"
	"testing"
	"time"
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

// TestControllerRateLimitTyped: the admission check the server makes per
// request denies with a typed *RateLimitError carrying a positive
// RetryAfter, and never limits the internal (empty) client.
func TestControllerRateLimitTyped(t *testing.T) {
	l := NewRateLimiter(1, 1)
	now := time.Now()
	if err := l.Allow("k", now); err != nil {
		t.Fatal(err)
	}
	err := l.Allow("k", now)
	var rl *RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("second immediate request returned %v, want *RateLimitError", err)
	}
	if rl.RetryAfter <= 0 {
		t.Fatal("RateLimitError carries no RetryAfter")
	}
	if err := l.Allow("", now); err != nil {
		t.Fatal("internal (empty) client must never be limited")
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

// TestRateLimiterRetryAfterNoWrap: at a tiny rate the next token is
// centuries away; RetryAfter must say so, clamped to the longest Duration,
// not wrap negative.
func TestRateLimiterRetryAfterNoWrap(t *testing.T) {
	t0 := time.Unix(1000, 0)
	for _, c := range []struct {
		rate float64
		want time.Duration
	}{
		{math.Ldexp(1, -30), 1 << 30 * time.Second}, // exact in float64
		{1e-12, math.MaxInt64},
		{math.SmallestNonzeroFloat64, math.MaxInt64},
	} {
		l := NewRateLimiter(c.rate, 1)
		if !allowed(t, l, "a", t0) {
			t.Fatalf("rate %g: burst token denied", c.rate)
		}
		var rl *RateLimitError
		if err := l.Allow("a", t0); !errors.As(err, &rl) {
			t.Fatalf("rate %g: second request returned %v, want *RateLimitError", c.rate, err)
		}
		if rl.RetryAfter != c.want {
			t.Errorf("rate %g: RetryAfter = %v, want %v", c.rate, rl.RetryAfter, c.want)
		}
	}
}
