package metrics

import (
	"errors"
	"sync"
	"testing"
)

func TestWindowEmpty(t *testing.T) {
	w := NewWindow(8)
	if w.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", w.Len())
	}
	if _, err := w.Percentile(50); !errors.Is(err, errEmpty) {
		t.Fatalf("Percentile on empty window: err = %v, want ErrEmpty", err)
	}
	if _, err := w.quantiles(50, 95); !errors.Is(err, errEmpty) {
		t.Fatalf("Quantiles on empty window: err = %v, want ErrEmpty", err)
	}
	if _, err := w.Summary(); !errors.Is(err, errEmpty) {
		t.Fatalf("Summary on empty window: err = %v, want ErrEmpty", err)
	}
	if got := w.snapshot(); len(got) != 0 {
		t.Fatalf("Snapshot() = %v, want empty", got)
	}
}

func TestWindowSingleSample(t *testing.T) {
	w := NewWindow(8)
	w.Add(3.5)
	if w.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", w.Len())
	}
	for _, p := range []float64{0, 50, 95, 100} {
		v, err := w.Percentile(p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", p, err)
		}
		if v != 3.5 {
			t.Fatalf("Percentile(%v) = %v, want 3.5", p, v)
		}
	}
	s, err := w.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.count != 1 || s.Mean != 3.5 || s.min != 3.5 || s.Max != 3.5 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(4)
	for i := 1; i <= 6; i++ {
		w.Add(float64(i))
	}
	if w.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", w.Len())
	}
	got := w.snapshot()
	want := []float64{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("Snapshot() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot() = %v, want %v (oldest first)", got, want)
		}
	}
	lo, err := w.Percentile(0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := w.Percentile(100)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 3 || hi != 6 {
		t.Fatalf("p0 = %v, p100 = %v, want 3, 6", lo, hi)
	}
}

func TestWindowQuantilesMatchPercentile(t *testing.T) {
	w := NewWindow(128)
	for i := 100; i >= 1; i-- {
		w.Add(float64(i))
	}
	qs, err := w.quantiles(50, 95, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []float64{50, 95, 99} {
		single, err := w.Percentile(p)
		if err != nil {
			t.Fatal(err)
		}
		if qs[i] != single {
			t.Fatalf("Quantiles p%v = %v, Percentile = %v", p, qs[i], single)
		}
	}
	if _, err := w.quantiles(101); err == nil {
		t.Fatal("Quantiles(101) succeeded, want error")
	}
}

func TestWindowClampsCapacity(t *testing.T) {
	w := NewWindow(0)
	w.Add(1)
	w.Add(2)
	if w.Len() != 1 {
		t.Fatalf("Len() = %d, want 1 (capacity clamped to 1)", w.Len())
	}
	v, err := w.Percentile(50)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("Percentile(50) = %v, want 2 (latest sample)", v)
	}
}

func TestWindowConcurrentAdd(t *testing.T) {
	w := NewWindow(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w.Add(float64(g*200 + i))
				w.Percentile(95)
				w.Len()
			}
		}(g)
	}
	wg.Wait()
	if w.Len() != 64 {
		t.Fatalf("Len() = %d, want 64", w.Len())
	}
}
