// Package metrics holds the statistics both the experiment harness and
// the daemons use: summaries, percentiles, moving averages, a streaming
// quantile window, and the Prometheus text writer behind /metrics.
package metrics

import (
	"errors"
	"math"
	"sort"
)

// errEmpty reports a statistic requested over no data.
var errEmpty = errors.New("metrics: empty data")

// Summary holds basic descriptive statistics.
type Summary struct {
	count  int
	Mean   float64
	min    float64
	Max    float64
	stdDev float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, errEmpty
	}
	s := Summary{count: len(xs), min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.min {
			s.min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		sq := 0.0
		for _, x := range xs {
			d := x - s.Mean
			sq += d * d
		}
		s.stdDev = math.Sqrt(sq / float64(len(xs)-1))
	}
	return s, nil
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// nearest-rank interpolation.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("metrics: percentile out of [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rankIndex(len(sorted), p)], nil
}

// rankIndex is the nearest-rank index of the p-th percentile (0 ≤ p ≤
// 100) among n > 0 sorted samples: ⌈p/100·n⌉ − 1, clamped to [0, n).
func rankIndex(n int, p float64) int {
	return max(0, min(int(math.Ceil(p/100*float64(n)))-1, n-1))
}

// MovingAverage returns the k-sample trailing moving average of xs (the
// smoothing Fig. 11 applies with window 3). The output has the same
// length; the first k−1 entries average the available prefix.
func MovingAverage(xs []float64, k int) []float64 {
	if k < 1 {
		k = 1
	}
	out := make([]float64, len(xs))
	sum := 0.0
	for i, x := range xs {
		sum += x
		if i >= k {
			sum -= xs[i-k]
		}
		n := k
		if i+1 < k {
			n = i + 1
		}
		out[i] = sum / float64(n)
	}
	return out
}
