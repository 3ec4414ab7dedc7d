package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer, and the number is one or two outliers.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of ascending samples, 0 when
// there are none.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// supported reports whether at least minBeyond of n samples lie beyond
// the q-quantile.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond
}

// tailLadder is tried from the top when a sample is too small for the
// percentile asked for.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.5}

// tail returns the highest percentile of the ladder, no higher than want,
// that the sample supports, and which one it is; the median when none is.
func tail(asc []float64, want float64) (value, q float64) {
	for _, q := range tailLadder {
		if q <= want && supported(len(asc), q) {
			return quantile(asc, q), q
		}
	}
	return quantile(asc, 0.5), 0.5
}

// bestShare ranks the slices of a run: every end-to-end timing is the figure
// of the slice standing a tenth of the way in from the good end (the lowest
// decile of the slices' latencies, the highest of their rates). The host is
// shared: a neighbour's burst makes the slices it falls in slow, never
// fast, so the good end is the program's own speed, and a tenth in keeps
// it off the few slices that merely got lucky (the first after warm-up,
// with its queues still empty, is one). Over ten seeds the decile spreads
// half as wide as the whole-run figure when the host is busy and as wide
// when it is quiet.
const bestShare = 0.1

// bestLow and bestHigh are that slice's figure when lower, or higher, is
// better; 0 when there is no slice.
func bestLow(xs []float64) float64 { return quantile(sorted(xs), bestShare) }

func bestHigh(xs []float64) float64 {
	neg := make([]float64, len(xs))
	for i, x := range xs {
		neg[i] = -x
	}
	return -bestLow(neg)
}

// sliceFigures returns, for every slice that holds a sample, the slice's
// median and its q-quantile. The slices are sorted in place.
func sliceFigures(bySlice [][]float64, q float64) (p50s, tails []float64) {
	for _, l := range bySlice {
		if len(l) > 0 {
			sort.Float64s(l)
			p50s = append(p50s, quantile(l, 0.5))
			tails = append(tails, quantile(l, q))
		}
	}
	return p50s, tails
}

// quartiles returns the first quartile, median and third quartile by the
// method of Python's statistics.quantiles(values, n=4) (exclusive), which
// is what the acceptance check of the benchmark contract uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return asc[0], asc[0], asc[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return asc[j-1] + frac*(asc[j]-asc[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
