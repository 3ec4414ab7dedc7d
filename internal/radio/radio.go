// Package radio models the vRAN side of OffloaDNN: resource blocks (RBs)
// and the SNR-dependent per-RB capacity B(σ). The minimal-slice rule that
// sizes r_τ is core.MinSlices, and core.Instance.Check enforces the RB
// budget (1d) Σ z·r ≤ R.
//
// Two capacity models are provided. FixedRate reproduces the paper's
// evaluation setting (B(σ) = 0.35 Mb/s per RB regardless of σ, Table IV);
// CQITable maps SNR through the LTE 4-bit CQI table to spectral
// efficiency, for scenarios that want channel diversity.
package radio

// CapacityModel maps a link SNR to the number of bits one RB carries per
// second.
type CapacityModel interface {
	// BitsPerRBPerSecond returns B(σ) in bit/s for the given average SNR.
	BitsPerRBPerSecond(snrDB float64) float64
}

// FixedRate is the paper's Table-IV setting: every RB carries the same
// rate regardless of channel quality.
type FixedRate struct {
	// Rate in bit/s per RB (paper: 0.35 Mb/s).
	Rate float64
}

// BitsPerRBPerSecond implements CapacityModel.
func (f FixedRate) BitsPerRBPerSecond(float64) float64 { return f.Rate }

// PaperRate returns the Table-IV fixed-rate model (0.35 Mb/s per RB).
func PaperRate() FixedRate { return FixedRate{Rate: 0.35e6} }

// CQITable is the LTE 4-bit CQI mapping: SNR thresholds to spectral
// efficiency (bits per resource element), per 3GPP TS 36.213 Table
// 7.2.3-1 with commonly used SNR switching points.
type CQITable struct {
	// overhead is the fraction of resource elements lost to control and
	// reference signals (defaults to 0.25 when zero-valued via NewCQITable).
	overhead float64
}

// NewCQITable returns the standard table with 25% control overhead.
func NewCQITable() CQITable { return CQITable{overhead: 0.25} }

var cqiSNR = []float64{-6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9, 8.1, 10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7}

var cqiEff = []float64{0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141, 2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547}

// cqi returns the channel quality indicator (0 when below the first
// threshold, else 1–15).
func (c CQITable) cqi(snrDB float64) int {
	idx := 0
	for i, th := range cqiSNR {
		if snrDB >= th {
			idx = i + 1
		}
	}
	return idx
}

// spectralEfficiency returns bits per resource element for the SNR.
func (c CQITable) spectralEfficiency(snrDB float64) float64 {
	q := c.cqi(snrDB)
	if q == 0 {
		return 0
	}
	return cqiEff[q-1]
}

// BitsPerRBPerSecond implements CapacityModel. One LTE RB spans 12
// subcarriers × 14 OFDM symbols per 1 ms subframe.
func (c CQITable) BitsPerRBPerSecond(snrDB float64) float64 {
	const resPerRBPerMs = 12 * 14
	eff := c.spectralEfficiency(snrDB)
	return eff * resPerRBPerMs * 1000 * (1 - c.overhead)
}
