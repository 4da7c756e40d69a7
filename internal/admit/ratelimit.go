package admit

import (
	"sync"
	"time"

	"sagrelay/internal/lru"
)

// RateLimiter is a per-client token-bucket limiter: each client key owns a
// bucket of burst tokens refilled at rate tokens/second, and one submission
// costs one token. The bucket table is LRU-bounded so a scan of unique
// client keys cannot grow it without bound; an evicted client re-enters
// with a full bucket (erring toward admitting).
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

// NewRateLimiter builds a limiter holding at most maxClients buckets of
// burst tokens each (both at least 1; Options.withDefaults supplies them);
// rate <= 0 disables it (Allow always admits).
func NewRateLimiter(rate float64, burst, maxClients int) *RateLimiter {
	return &RateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: lru.New[string, *bucket](maxClients),
	}
}

// Allow spends one token from key's bucket at time now. When the bucket is
// empty it returns ok=false and how long until the next token accrues. The
// explicit now keeps the limiter deterministic under test.
func (l *RateLimiter) Allow(key string, now time.Time) (retryAfter time.Duration, ok bool) {
	if l == nil || l.rate <= 0 || key == "" {
		return 0, true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets.Get(key)
	if !found {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets.Add(key, b)
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	need := (1 - b.tokens) / l.rate
	return time.Duration(need * float64(time.Second)), false
}
