// Package admit is the solve service's per-client rate limiter. Overload
// itself needs no admission decision: the service's bounded queue answers
// 429 when full, every job carries a deadline, and the degrade ladder
// answers late stages with the paper's heuristics (see internal/serve).
// The limiter keys a token bucket on API key or remote address and rejects
// a client past its budget with *RateLimitError (HTTP 429).
package admit

import (
	"fmt"
	"math"
	"sync"
	"time"

	"sagrelay/internal/lru"
)

// maxClients bounds the limiter's per-client bucket table. An evicted client
// re-enters with a full bucket, which errs toward admitting.
const maxClients = 4096

// RateLimitError is the typed rejection of a client that exhausted its
// token bucket. The HTTP layer maps it to 429 with a Retry-After header.
type RateLimitError struct {
	Client     string
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("admit: client %s rate limited; retry in %v", e.Client, e.RetryAfter.Round(time.Millisecond))
}

// RateLimiter is a per-client token-bucket limiter: each client key owns a
// bucket of burst tokens refilled at rate tokens/second, and one submission
// costs one token. The bucket table is LRU-bounded so a scan of unique
// client keys cannot grow it without bound. All methods are safe for
// concurrent use.
type RateLimiter struct {
	rate  float64
	burst float64

	// mu serializes bucket updates; the LRU itself only bounds the table.
	mu      sync.Mutex
	buckets *lru.Cache[string, *bucket]
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter of rate requests/second per client with
// buckets of burst tokens; burst <= 0 derives it from rate (at least 1
// token, so a conforming client is never starved). rate <= 0 disables
// limiting: Allow always admits.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	if burst <= 0 {
		burst = max(int(rate), 1)
	}
	return &RateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: lru.New[string, *bucket](maxClients),
	}
}

// Allow spends one token from client's bucket at time now, or returns a
// *RateLimitError saying how long until the next token accrues. An empty
// client (internal callers: journal replay, in-process Submit callers and
// tests) is never limited. The explicit now keeps the limiter deterministic
// under test.
func (l *RateLimiter) Allow(client string, now time.Time) error {
	if l.rate <= 0 || client == "" {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets.Get(client)
	if !found {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets.Add(client, b)
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = min(b.tokens+dt*l.rate, l.burst)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return nil
	}
	return &RateLimitError{Client: client, RetryAfter: retryAfter((1 - b.tokens) / l.rate)}
}

// retryAfter converts a wait in seconds to a Duration, clamped to the
// longest Duration: at a tiny rate the next token is centuries away, and
// the plain conversion would wrap negative.
func retryAfter(secs float64) time.Duration {
	if secs >= float64(math.MaxInt64/time.Second) {
		return math.MaxInt64
	}
	return time.Duration(secs * float64(time.Second))
}
