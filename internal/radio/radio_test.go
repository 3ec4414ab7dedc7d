package radio

import (
	"errors"
	"math"
	"testing"
)

func TestPaperRateMatchesTableIV(t *testing.T) {
	b := PaperRate().BitsPerRBPerSecond(0)
	if b != 0.35e6 {
		t.Fatalf("B = %v, want 0.35 Mb/s", b)
	}
	// SNR-independent.
	if PaperRate().BitsPerRBPerSecond(30) != b {
		t.Fatal("fixed rate should ignore SNR")
	}
}

func TestPaperScenarioOneRBOneImagePerSecond(t *testing.T) {
	// β = 350 Kb, B = 0.35 Mb/s → one RB transmits one image per second,
	// and five RBs one in 200 ms.
	b := PaperRate().BitsPerRBPerSecond(0)
	if got := 350e3 / b; math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("tx time on 1 RB %v s, want 1 s", got)
	}
	if got := 350e3 / (5 * b); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("tx time on 5 RBs %v s, want 200 ms", got)
	}
}

func TestCQITableMonotone(t *testing.T) {
	c := NewCQITable()
	prev := -1.0
	for snr := -10.0; snr <= 30; snr += 0.5 {
		b := c.BitsPerRBPerSecond(snr)
		if b < prev {
			t.Fatalf("capacity decreased at %v dB: %v < %v", snr, b, prev)
		}
		prev = b
	}
	if c.CQI(-20) != 0 {
		t.Fatalf("CQI(-20dB) = %d, want 0", c.CQI(-20))
	}
	if c.CQI(25) != 15 {
		t.Fatalf("CQI(25dB) = %d, want 15", c.CQI(25))
	}
	if c.SpectralEfficiency(-20) != 0 {
		t.Fatal("efficiency below sensitivity should be 0")
	}
}

func TestSliceAllocator(t *testing.T) {
	a := NewSliceAllocator(10)
	if err := a.Allocate("t1", 4); err != nil {
		t.Fatal(err)
	}
	if err := a.Allocate("t2", 6); err != nil {
		t.Fatal(err)
	}
	if a.Available() != 0 {
		t.Fatalf("available = %d, want 0", a.Available())
	}
	if err := a.Allocate("t3", 1); !errors.Is(err, errCapacity) {
		t.Fatalf("over-allocation err = %v, want ErrCapacity", err)
	}
	// Replacing an existing slice only charges the delta.
	if err := a.Allocate("t1", 2); err != nil {
		t.Fatal(err)
	}
	if a.Available() != 2 {
		t.Fatalf("available = %d, want 2", a.Available())
	}
	a.Release("t2")
	if a.Available() != 8 {
		t.Fatalf("available = %d, want 8 after release", a.Available())
	}
	if a.Allocation("t2") != 0 {
		t.Fatal("released slice still present")
	}
	if err := a.Allocate("t1", -1); err == nil {
		t.Fatal("negative allocation should error")
	}
	// Zero allocation removes the slice.
	if err := a.Allocate("t1", 0); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 0 {
		t.Fatalf("used = %d, want 0", a.Used())
	}
}

func TestSliceAllocatorTimeSharing(t *testing.T) {
	// Two half-time slices of 8 RBs each charge 8 total against a 10-RB
	// pool — the (1d) Σ z·r semantics.
	a := NewSliceAllocator(10)
	if err := a.AllocateShared("t1", 8, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := a.AllocateShared("t2", 8, 0.5); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 8 {
		t.Fatalf("Used = %d, want 8", a.Used())
	}
	if math.Abs(a.UsedFraction()-0.8) > 1e-12 {
		t.Fatalf("UsedFraction = %v, want 0.8", a.UsedFraction())
	}
	if a.Share("t1") != 0.5 || a.Allocation("t1") != 8 {
		t.Fatalf("grant = %d×%v", a.Allocation("t1"), a.Share("t1"))
	}
	// A third 8-RB half-time slice (4 effective) would exceed the pool.
	if err := a.AllocateShared("t3", 8, 0.5); !errors.Is(err, errCapacity) {
		t.Fatalf("over-allocation err = %v, want ErrCapacity", err)
	}
	// But a quarter-time one (2 effective) fits.
	if err := a.AllocateShared("t3", 8, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := a.AllocateShared("t4", 1, 1.5); err == nil {
		t.Fatal("share > 1 should be rejected")
	}
	// Zero share removes the grant.
	if err := a.AllocateShared("t3", 8, 0); err != nil {
		t.Fatal(err)
	}
	if a.Allocation("t3") != 0 {
		t.Fatal("zero-share grant not removed")
	}
}

// TestSliceAllocatorRunningTotal pins the O(1) usage total against a
// re-sum over the public per-task view after every kind of mutation.
func TestSliceAllocatorRunningTotal(t *testing.T) {
	const total = 20
	a := NewSliceAllocator(total)
	tasks := []string{"t1", "t2", "t3"}
	check := func(step string) {
		t.Helper()
		sum := 0.0
		for _, id := range tasks {
			sum += float64(a.Allocation(id)) * a.Share(id)
		}
		if got := a.UsedFraction(); math.Abs(got-sum/total) > 1e-9 {
			t.Fatalf("%s: UsedFraction = %v, re-sum gives %v", step, got, sum/total)
		}
		if got, want := a.Available(), int(total-sum+1e-9); got != want {
			t.Fatalf("%s: Available = %d, re-sum gives %d", step, got, want)
		}
	}
	grant := func(step, id string, rbs int, share float64) {
		t.Helper()
		if err := a.AllocateShared(id, rbs, share); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		check(step)
	}
	grant("grant t1", "t1", 7, 0.3)
	grant("grant t2", "t2", 9, 0.7)
	grant("grant t3", "t3", 5, 1)
	grant("re-grant t1 larger", "t1", 12, 0.6)
	grant("re-grant t2 smaller", "t2", 3, 0.1)
	if err := a.AllocateShared("t2", 20, 1); !errors.Is(err, errCapacity) {
		t.Fatalf("over-capacity err = %v, want ErrCapacity", err)
	}
	check("refused over-capacity grant")
	if a.Allocation("t2") != 3 || a.Share("t2") != 0.1 {
		t.Fatalf("refused grant replaced t2: %d×%v", a.Allocation("t2"), a.Share("t2"))
	}
	grant("zero-share removal of t3", "t3", 5, 0)
	a.Release("t1")
	check("release t1")
	a.Release("unknown")
	check("release of an absent task")
	a.Release("t2")
	check("release t2")
	if a.UsedFraction() != 0 {
		t.Fatalf("emptied pool reads %v, want exactly 0", a.UsedFraction())
	}
}
