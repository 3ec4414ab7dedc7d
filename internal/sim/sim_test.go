package sim

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	mustSchedule(t, e, 30*time.Millisecond, func() { order = append(order, 3) })
	mustSchedule(t, e, 10*time.Millisecond, func() { order = append(order, 1) })
	mustSchedule(t, e, 20*time.Millisecond, func() { order = append(order, 2) })
	n := e.Run(time.Second)
	if n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order %v", order)
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		mustSchedule(t, e, 10*time.Millisecond, func() { order = append(order, i) })
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestClockAdvancesWithEvents(t *testing.T) {
	e := NewEngine()
	var seen time.Duration
	mustSchedule(t, e, 42*time.Millisecond, func() { seen = e.Now() })
	e.Run(time.Second)
	if seen != 42*time.Millisecond {
		t.Fatalf("Now() inside event = %v, want 42ms", seen)
	}
	if e.Now() != time.Second {
		t.Fatalf("Now() after Run = %v, want horizon 1s", e.Now())
	}
}

func TestRunRespectsHorizon(t *testing.T) {
	e := NewEngine()
	ran := false
	mustSchedule(t, e, 2*time.Second, func() { ran = true })
	n := e.Run(time.Second)
	if n != 0 || ran {
		t.Fatal("event beyond horizon should not run")
	}
	if len(e.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(e.queue))
	}
	// A later Run picks it up.
	e.Run(3 * time.Second)
	if !ran {
		t.Fatal("event not run after extending horizon")
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			if err := e.Schedule(time.Millisecond, tick); err != nil {
				t.Errorf("nested schedule: %v", err)
			}
		}
	}
	mustSchedule(t, e, 0, tick)
	e.Run(time.Second)
	if count != 10 {
		t.Fatalf("chained events ran %d times, want 10", count)
	}
}

func TestScheduleValidation(t *testing.T) {
	e := NewEngine()
	mustSchedule(t, e, 10*time.Millisecond, func() {})
	e.Run(time.Second)
	if err := e.ScheduleAt(5*time.Millisecond, func() {}); !errors.Is(err, errPast) {
		t.Fatalf("past event err = %v, want ErrPast", err)
	}
	if err := e.Schedule(time.Millisecond, nil); err == nil {
		t.Fatal("nil fn should be rejected")
	}
}

func TestStepSingle(t *testing.T) {
	e := NewEngine()
	if e.step() {
		t.Fatal("Step on empty queue should report false")
	}
	ran := false
	mustSchedule(t, e, time.Millisecond, func() { ran = true })
	if !e.step() || !ran {
		t.Fatal("Step did not execute the event")
	}
}

// Property: for any batch of random delays, events execute in
// non-decreasing time order.
func TestQuickTimeOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := 1 + rng.Intn(50)
		var times []time.Duration
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Intn(1000)) * time.Millisecond
			if err := e.Schedule(d, func() { times = append(times, e.Now()) }); err != nil {
				return false
			}
		}
		e.Run(2 * time.Second)
		if len(times) != n {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func mustSchedule(t *testing.T, e *Engine, d time.Duration, fn func()) {
	t.Helper()
	if err := e.Schedule(d, fn); err != nil {
		t.Fatal(err)
	}
}
