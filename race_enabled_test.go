//go:build race

package offloadnn_test

// raceDetectorEnabled relaxes wall-clock acceptance bounds in tests, as
// its twin in internal/serve does: the deadline itself is pinned by the
// non-race run.
const raceDetectorEnabled = true
