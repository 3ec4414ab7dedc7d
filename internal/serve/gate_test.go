package serve

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic gate tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestGateBurstAndRefill(t *testing.T) {
	clock := newFakeClock()
	g := newGate(2, clock.Now) // burst = max(1, 2) = 2 tokens

	for i := 0; i < 2; i++ {
		if ok, _ := g.Allow(); !ok {
			t.Fatalf("request %d within burst rejected", i+1)
		}
	}
	ok, wait := g.Allow()
	if ok {
		t.Fatal("third immediate request admitted beyond burst")
	}
	if wait <= 0 || wait > 500*time.Millisecond {
		t.Fatalf("retry hint %v, want in (0, 500ms] for rate 2/s", wait)
	}

	// After the hinted wait exactly one token is available.
	clock.Advance(wait)
	if ok, _ := g.Allow(); !ok {
		t.Fatal("request after hinted wait rejected")
	}
	if ok, _ := g.Allow(); ok {
		t.Fatal("second request after single-token refill admitted")
	}

	// A long idle period refills at most the burst capacity.
	clock.Advance(time.Minute)
	for i := 0; i < 2; i++ {
		if ok, _ := g.Allow(); !ok {
			t.Fatalf("request %d after refill rejected", i+1)
		}
	}
	if ok, _ := g.Allow(); ok {
		t.Fatal("burst capacity exceeded after idle refill")
	}
}

func TestGateSubUnitRateStillBurstsOne(t *testing.T) {
	clock := newFakeClock()
	g := newGate(0.5, clock.Now) // burst clamps to 1
	if ok, _ := g.Allow(); !ok {
		t.Fatal("first request at sub-unit rate rejected")
	}
	ok, wait := g.Allow()
	if ok {
		t.Fatal("second immediate request admitted")
	}
	if want := 2 * time.Second; wait != want {
		t.Fatalf("retry hint %v, want %v for rate 0.5/s", wait, want)
	}
}

func TestGateZeroRateRejectsAll(t *testing.T) {
	g := newGate(0, nil)
	ok, wait := g.Allow()
	if ok {
		t.Fatal("zero-rate gate admitted a request")
	}
	if wait != 0 {
		t.Fatalf("zero-rate gate hinted retry %v, want 0 (no retry can succeed)", wait)
	}
}

func TestGateExactRateConforming(t *testing.T) {
	clock := newFakeClock()
	g := newGate(5, clock.Now)
	// A periodic source at exactly the admitted rate is never rejected.
	for i := 0; i < 100; i++ {
		clock.Advance(200 * time.Millisecond)
		if ok, _ := g.Allow(); !ok {
			t.Fatalf("conforming request %d rejected", i)
		}
	}
}
