package serve

import (
	"math"
	"sync"
	"time"
)

// gate enforces one task's notified admission rate z·λ on the offload
// request path (the "rate notification" step of the Fig. 4 loop, turned
// into an active admission control): a token bucket refilled at Rate
// requests per second with one second of burst capacity. Requests beyond
// the bucket are rejected with a retry hint rather than queued, so an
// over-rate UE degrades gracefully and can never grow an unbounded
// backlog at the edge. It is safe for concurrent use.
type gate struct {
	mu     sync.Mutex
	rate   float64 // tokens per second (z·λ)
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time
}

// newGate creates a gate admitting `rate` requests per second. The burst
// capacity is one second's worth of tokens, at least one, so a conforming
// periodic source is never spuriously rejected. A non-positive rate
// yields a gate that rejects everything. now is the clock (nil =
// time.Now); injectable for deterministic tests.
func newGate(rate float64, now func() time.Time) *gate {
	if now == nil {
		now = time.Now
	}
	g := &gate{rate: rate, now: now}
	if rate > 0 {
		g.burst = math.Max(1, rate)
		g.tokens = g.burst
	}
	g.last = now()
	return g
}

// rerated returns a gate enforcing the new rate that starts from g's
// bucket — g's tokens refilled to now, clamped to the new burst — so a
// rate change never grants tokens the old rate had not accrued.
func (g *gate) rerated(rate float64) *gate {
	n := newGate(rate, g.now)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.refill(n.last)
	n.tokens = math.Min(n.burst, g.tokens)
	return n
}

// refill credits the tokens accrued since the last refill, up to the
// burst; g.mu must be held.
func (g *gate) refill(t time.Time) {
	if dt := t.Sub(g.last).Seconds(); dt > 0 {
		g.tokens = math.Min(g.burst, g.tokens+dt*g.rate)
	}
	g.last = t
}

// Rate returns the enforced rate in requests per second.
func (g *gate) Rate() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rate
}

// Allow consumes one token if available. When the request must be
// rejected it returns false and the duration after which a retry will
// find a token (zero when the gate's rate is zero and no retry can ever
// succeed).
func (g *gate) Allow() (bool, time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rate <= 0 {
		return false, 0
	}
	g.refill(g.now())
	if g.tokens >= 1 {
		g.tokens--
		return true, 0
	}
	wait := (1 - g.tokens) / g.rate
	return false, time.Duration(wait * float64(time.Second))
}
