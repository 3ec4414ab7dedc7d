package metrics

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) over the window,
// or errEmpty when no sample has been recorded yet.
func (w *Window) Percentile(p float64) (float64, error) {
	return Percentile(w.snapshot(), p)
}

// Summary computes descriptive statistics over the window, or errEmpty
// when no sample has been recorded yet.
func (w *Window) Summary() (Summary, error) {
	return Summarize(w.snapshot())
}
