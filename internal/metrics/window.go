package metrics

import (
	"errors"
	"math"
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

// Snapshot copies out the held samples, oldest first.
func (w *Window) Snapshot() []float64 {
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

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) over the window,
// or errEmpty when no sample has been recorded yet.
func (w *Window) Percentile(p float64) (float64, error) {
	return Percentile(w.Snapshot(), p)
}

// Quantiles evaluates several percentiles over one consistent snapshot
// of the window (a single sort), returning them in the order requested.
func (w *Window) Quantiles(ps ...float64) ([]float64, error) {
	xs := w.Snapshot()
	if len(xs) == 0 {
		return nil, errEmpty
	}
	sort.Float64s(xs)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			return nil, errors.New("metrics: percentile out of [0,100]")
		}
		idx := 0
		if p > 0 {
			idx = int(math.Ceil(p/100*float64(len(xs)))) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= len(xs) {
				idx = len(xs) - 1
			}
		}
		out[i] = xs[idx]
	}
	return out, nil
}

// Summary computes descriptive statistics over the window, or errEmpty
// when no sample has been recorded yet.
func (w *Window) Summary() (Summary, error) {
	return Summarize(w.Snapshot())
}
