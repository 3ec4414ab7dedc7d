package faultinject

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var inj *Injector
	if err := inj.Hit(context.Background(), PointSolverError); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	if inj.Fires(PointSolverError) != 0 || inj.Hits(PointSolverError) != 0 {
		t.Fatal("nil injector has counters")
	}
}

func TestUnarmedPointIsNoOp(t *testing.T) {
	inj := New(1)
	for i := 0; i < 10; i++ {
		if err := inj.Hit(context.Background(), PointSolverError); err != nil {
			t.Fatalf("unarmed point fired: %v", err)
		}
	}
	if inj.Hits(PointSolverError) != 0 {
		t.Fatal("unarmed point counted hits")
	}
}

func TestEveryNAndCount(t *testing.T) {
	inj := New(1)
	inj.Set(PointSolverError, Rule{EveryN: 3, Count: 2})
	var fired []int
	for i := 1; i <= 12; i++ {
		if err := inj.Hit(context.Background(), PointSolverError); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: error %v does not wrap ErrInjected", i, err)
			}
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 6 {
		t.Fatalf("fired on hits %v, want [3 6] (every 3rd, capped at 2)", fired)
	}
	if got := inj.Fires(PointSolverError); got != 2 {
		t.Fatalf("Fires = %d, want 2", got)
	}
	if got := inj.Hits(PointSolverError); got != 12 {
		t.Fatalf("Hits = %d, want 12", got)
	}
}

func TestProbabilityTriggerIsSeededAndPlausible(t *testing.T) {
	const n = 2000
	count := func(seed int64) int {
		inj := New(seed)
		inj.Set(PointSolverError, Rule{P: 0.3})
		fires := 0
		for i := 0; i < n; i++ {
			if inj.Hit(context.Background(), PointSolverError) != nil {
				fires++
			}
		}
		return fires
	}
	a, b := count(7), count(7)
	if a != b {
		t.Fatalf("same seed fired %d then %d times", a, b)
	}
	if a < n/5 || a > n/2 {
		t.Fatalf("p=0.3 fired %d of %d hits", a, n)
	}
}

func TestPanicMode(t *testing.T) {
	inj := New(1)
	inj.Set(PointSolverPanic, Rule{EveryN: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("panic point did not panic")
		}
	}()
	inj.Hit(context.Background(), PointSolverPanic)
}

func TestHangModeUnblocksOnContext(t *testing.T) {
	inj := New(1)
	inj.Set(PointSolverHang, Rule{EveryN: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- inj.Hit(ctx, PointSolverHang) }()
	select {
	case err := <-done:
		t.Fatalf("hang returned %v before cancel", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("hang returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hang never unblocked after cancel")
	}
}

func TestHangModeBoundedStall(t *testing.T) {
	inj := New(1)
	inj.Set(PointSolverHang, Rule{EveryN: 1, HangFor: 10 * time.Millisecond})
	start := time.Now()
	if err := inj.Hit(context.Background(), PointSolverHang); err != nil {
		t.Fatalf("bounded hang returned %v, want nil", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("bounded hang stalled only %v", d)
	}
}

func TestSetResetsCounters(t *testing.T) {
	inj := New(1)
	inj.Set(PointSolverError, Rule{EveryN: 1, Count: 1})
	inj.Hit(context.Background(), PointSolverError)
	if inj.Hit(context.Background(), PointSolverError) != nil {
		t.Fatal("count cap not enforced")
	}
	inj.Set(PointSolverError, Rule{EveryN: 1, Count: 1})
	if inj.Hit(context.Background(), PointSolverError) == nil {
		t.Fatal("re-armed point did not fire")
	}
	inj.Clear(PointSolverError)
	if inj.Hit(context.Background(), PointSolverError) != nil {
		t.Fatal("cleared point fired")
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec  string
		point string
		rule  Rule
		ok    bool
	}{
		{"solver.error", PointSolverError, Rule{EveryN: 1}, true},
		{"solver.error:p=0.3", PointSolverError, Rule{P: 0.3}, true},
		{"solver.panic:every=5,count=2", PointSolverPanic, Rule{EveryN: 5, Count: 2}, true},
		{"solver.hang:every=3,for=2s", PointSolverHang, Rule{EveryN: 3, HangFor: 2 * time.Second}, true},
		{"deploy.error:p=1,count=1", PointDeployError, Rule{P: 1, Count: 1}, true},
		{"", "", Rule{}, false},
		{"solver.error:p=1.5", "", Rule{}, false},
		{"solver.error:bogus=1", "", Rule{}, false},
		{"solver.error:every", "", Rule{}, false},
		{"solver.error:every=0", "", Rule{}, false},
	}
	for _, tc := range cases {
		point, rule, err := ParseSpec(tc.spec)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseSpec(%q): err=%v, want ok=%v", tc.spec, err, tc.ok)
		}
		if !tc.ok {
			continue
		}
		if point != tc.point || rule != tc.rule {
			t.Fatalf("ParseSpec(%q) = %q %+v, want %q %+v", tc.spec, point, rule, tc.point, tc.rule)
		}
	}
}

func TestModeOf(t *testing.T) {
	if modeOf(PointSolverError) != modeError || modeOf(PointDeployError) != modeError {
		t.Fatal("error points misclassified")
	}
	if modeOf(PointSolverPanic) != modePanic {
		t.Fatal("panic point misclassified")
	}
	if modeOf(PointSolverHang) != modeHang {
		t.Fatal("hang point misclassified")
	}
}
