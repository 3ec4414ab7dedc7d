// Package sim is a minimal discrete-event simulation engine: a clock and a
// time-ordered event queue with deterministic FIFO tie-breaking. The edge
// emulator builds the Colosseum-substitute experiment (Fig. 11) on top of
// it.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// errPast reports scheduling an event before the current simulation time.
var errPast = errors.New("sim: event scheduled in the past")

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine owns the simulated clock and event queue. It is not safe for
// concurrent use: events run on the caller's goroutine inside Run/Step.
type Engine struct {
	now   time.Duration
	queue eventQueue
	seq   uint64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule enqueues fn to run after delay (≥ 0) of simulated time.
func (e *Engine) Schedule(delay time.Duration, fn func()) error {
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt enqueues fn at an absolute simulation time.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) error {
	if at < e.now {
		return fmt.Errorf("%w: %v before now %v", errPast, at, e.now)
	}
	if fn == nil {
		return errors.New("sim: nil event function")
	}
	e.seq++
	heap.Push(&e.queue, &event{at: at, seq: e.seq, fn: fn})
	return nil
}

// step executes the next event, advancing the clock. It reports whether an
// event was executed.
func (e *Engine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue drains or the next event lies beyond
// `until`; the clock is left at the last executed event (or `until` when
// the horizon is hit). It returns the number of events executed.
func (e *Engine) Run(until time.Duration) int {
	n := 0
	for len(e.queue) > 0 && e.queue[0].at <= until {
		e.step()
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}
