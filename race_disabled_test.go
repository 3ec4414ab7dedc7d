//go:build !race

package offloadnn_test

const raceDetectorEnabled = false
