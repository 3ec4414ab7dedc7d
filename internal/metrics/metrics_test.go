package metrics

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.count != 8 || s.Mean != 5 || s.min != 2 || s.Max != 9 {
		t.Fatalf("summary %+v", s)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if math.Abs(s.stdDev-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("stddev %v", s.stdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, errEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	p50, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 3 {
		t.Fatalf("p50 = %v, want 3", p50)
	}
	p0, _ := Percentile(xs, 0)
	p100, _ := Percentile(xs, 100)
	if p0 != 1 || p100 != 5 {
		t.Fatalf("p0 = %v, p100 = %v", p0, p100)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("percentile > 100 should error")
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, errEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile sorted its input in place")
	}
}

func TestMovingAverageWindow3(t *testing.T) {
	got := MovingAverage([]float64{3, 6, 9, 12}, 3)
	want := []float64{3, 4.5, 6, 9}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ma[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMovingAverageDegenerateWindows(t *testing.T) {
	xs := []float64{1, 2, 3}
	got := MovingAverage(xs, 0) // clamped to 1: identity
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("window-1 ma changed data: %v", got)
		}
	}
	if len(MovingAverage(nil, 3)) != 0 {
		t.Fatal("empty input should give empty output")
	}
}

// Property: the moving average is bounded by the window min and max.
func TestQuickMovingAverageBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(6)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		ma := MovingAverage(xs, k)
		for i := range ma {
			lo, hi := math.Inf(1), math.Inf(-1)
			start := i - k + 1
			if start < 0 {
				start = 0
			}
			for j := start; j <= i; j++ {
				lo = math.Min(lo, xs[j])
				hi = math.Max(hi, xs[j])
			}
			if ma[i] < lo-1e-9 || ma[i] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
