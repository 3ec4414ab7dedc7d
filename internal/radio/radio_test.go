package radio

import (
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
	if c.cqi(-20) != 0 {
		t.Fatalf("CQI(-20dB) = %d, want 0", c.cqi(-20))
	}
	if c.cqi(25) != 15 {
		t.Fatalf("CQI(25dB) = %d, want 15", c.cqi(25))
	}
	if c.spectralEfficiency(-20) != 0 {
		t.Fatal("efficiency below sensitivity should be 0")
	}
}
