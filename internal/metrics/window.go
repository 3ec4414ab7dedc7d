package metrics

import (
	"errors"
	"sort"
	"sync"
)

// Window is a fixed-capacity ring buffer over the most recent samples,
// supporting streaming percentile queries — the live latency quantiles
// (p50/p95/p99) the serving daemon exports while requests keep arriving.
// Older samples fall out as new ones are added. It is safe for concurrent
// use.
type Window struct {
	mu   sync.Mutex
	buf  []float64
	next int
	full bool
}

// NewWindow creates a window keeping the last `capacity` samples.
// Capacities below 1 are clamped to 1.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{buf: make([]float64, capacity)}
}

// Add records one sample, evicting the oldest when the window is full.
func (w *Window) Add(x float64) {
	w.mu.Lock()
	w.buf[w.next] = x
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
	w.mu.Unlock()
}

// Len returns the number of samples currently held (≤ capacity).
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.len()
}

func (w *Window) len() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// snapshot copies out the held samples, oldest first.
func (w *Window) snapshot() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.len()
	out := make([]float64, 0, n)
	if w.full {
		out = append(out, w.buf[w.next:]...)
	}
	out = append(out, w.buf[:w.next]...)
	return out
}

// quantiles evaluates several percentiles over one consistent snapshot
// of the window (a single sort), returning them in the order requested.
func (w *Window) quantiles(ps ...float64) ([]float64, error) {
	xs := w.snapshot()
	if len(xs) == 0 {
		return nil, errEmpty
	}
	sort.Float64s(xs)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			return nil, errors.New("metrics: percentile out of [0,100]")
		}
		out[i] = xs[rankIndex(len(xs), p)]
	}
	return out, nil
}
